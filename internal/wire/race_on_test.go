//go:build race

package wire

// raceDetectorEnabled lets allocation-count assertions skip themselves
// under -race, which instruments allocations.
const raceDetectorEnabled = true
