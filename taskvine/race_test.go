//go:build race

package taskvine

func init() { raceDetector = true }
