//go:build race

package pickle

func init() { raceDetector = true }
