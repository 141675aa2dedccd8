package resilience

import (
	"errors"
	"testing"
)

func TestSafeConvertsPanic(t *testing.T) {
	err := Safe(func() error { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v", err)
	}
	if pe.Value != 42 {
		t.Fatalf("value %v", pe.Value)
	}
	if Safe(func() error { return nil }) != nil {
		t.Fatal("clean call errored")
	}
}
