//go:build race

package library

func init() { raceDetector = true }
