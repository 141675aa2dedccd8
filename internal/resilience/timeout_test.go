package resilience

import (
	"errors"
	"testing"
	"time"
)

// The timeout wrapper is the one real-time corner of the package; these
// tests use generous margins so they stay robust on loaded CI.

func TestWithTimeoutFastCall(t *testing.T) {
	if err := WithTimeout(time.Second, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WithTimeout(time.Second, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
}

func TestWithTimeoutExpires(t *testing.T) {
	release := make(chan struct{})
	err := WithTimeout(5*time.Millisecond, func() error {
		<-release
		return nil
	})
	close(release)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err %v, want ErrTimeout", err)
	}
}

func TestWithTimeoutZeroRunsInline(t *testing.T) {
	err := WithTimeout(0, func() error { panic("inline") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v, want recovered panic", err)
	}
}

func TestWithTimeoutRecoversGoroutinePanic(t *testing.T) {
	err := WithTimeout(time.Second, func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v, want recovered panic", err)
	}
}

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
