//go:build race

package proto

func init() { raceDetector = true }
