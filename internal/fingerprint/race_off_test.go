//go:build !race

package fingerprint

const raceEnabled = false
