//go:build race

package dataplane

func init() { raceDetector = true }
