package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/simclock"
)

// Direct mode (-loaddirect) appends a decision-throughput section to the
// loadsim and clustersim reports: the same seeded plan replayed in-process
// against a fresh target, once through per-request Decide and once through
// DecideBatch at -loadbatch, so the E14/E15 tables show what batch
// amortization buys with sockets and HTTP parsing out of the frame. The
// section is off by default because its timing columns are wall-clock —
// the deterministic report above it stays byte-identical per seed.

// directSection replays the plan at batch=1 and batch=-loadbatch against
// independently built in-process targets and renders the comparison.
func (s scenario[A, R]) directSection(run loadRun, stdout io.Writer) error {
	batch := run.opts.loadBatch
	if batch < 2 {
		batch = 64
	}
	replay := func(b int) (*loadgen.DirectResult, error) {
		clock := simclock.NewManual(run.plan.Scenario.Start)
		return loadgen.RunDirect(loadgen.DirectConfig{
			Plan:    run.plan,
			Target:  s.direct(run, clock),
			Batch:   b,
			Virtual: clock,
		})
	}
	seq, err := replay(1)
	if err != nil {
		return err
	}
	bat, err := replay(batch)
	if err != nil {
		return err
	}

	t := metrics.NewTable(s.name+" direct decision throughput",
		"Metric", "batch=1", fmt.Sprintf("batch=%d", batch))
	cell := func(label string, f func(*loadgen.DirectResult) string) {
		t.AddRow(label, f(seq), f(bat))
	}
	cell("decisions", func(r *loadgen.DirectResult) string {
		return metrics.FormatInt(int64(r.Requests))
	})
	cell("admitted", func(r *loadgen.DirectResult) string {
		return metrics.FormatInt(int64(r.Admitted))
	})
	cell("denied", func(r *loadgen.DirectResult) string {
		return metrics.FormatInt(int64(r.Denied))
	})
	cell("elapsed", func(r *loadgen.DirectResult) string {
		return r.Elapsed.Round(time.Microsecond).String()
	})
	cell("throughput (dec/s)", func(r *loadgen.DirectResult) string {
		return metrics.FormatInt(int64(r.Throughput()))
	})
	speedup := "n/a"
	if seq.Throughput() > 0 {
		speedup = fmt.Sprintf("%.2fx", bat.Throughput()/seq.Throughput())
	}
	t.AddRow("batch speedup", "1.00x", speedup)
	fmt.Fprint(stdout, t.String())
	return nil
}
