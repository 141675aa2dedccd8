//go:build !race

package entitygraph

const raceEnabled = false
