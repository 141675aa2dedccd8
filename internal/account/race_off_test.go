//go:build !race

package account

const raceEnabled = false
