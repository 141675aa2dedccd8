package main

import "testing"

// TestRun drives the example end to end, as its main does.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
