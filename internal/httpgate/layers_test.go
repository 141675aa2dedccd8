package httpgate

import (
	"slices"
	"testing"
)

// TestLayerTable pins what the rest of the package derives from the layer
// table: rows in Layer order covering every check layer, the journal
// last; one name per layer and one reason per row; a fail policy on every
// row that can run caller code; Reasons() in exactly
// the slot order the hand-written tables had (it is the series order of
// gate_denials_total and the row order of loadgen reports); and the
// single-layer DegradedHeader values.
func TestLayerTable(t *testing.T) {
	// noPolicy names the rows no caller code can serve — in-process
	// built-ins that cannot fail — which alone may go without a fail
	// policy. A new row needs a policy or a deliberate entry here.
	noPolicy := map[string]bool{
		ReasonEntity: true, ReasonAccountTier: true, ReasonAccountLimit: true,
		ReasonProfile: true, ReasonPathLimit: true,
	}
	rows := layerTable[:]
	if last := rows[len(rows)-1].layer; last != LayerDecision {
		t.Fatalf("journal row is layer %d, want LayerDecision", last)
	}
	names := map[string]Layer{}
	seenReason := map[string]bool{}
	next := LayerBlocklist
	for i, row := range rows {
		switch {
		case row.layer == next:
			next++
		case i == 0 || row.layer != rows[i-1].layer:
			t.Fatalf("row %d (%s) is layer %d, want layer %d or a further step of layer %d", i, row.reason, row.layer, next, next-1)
		}
		if l, dup := names[row.name]; dup && l != row.layer {
			t.Errorf("name %q names layers %d and %d", row.name, l, row.layer)
		}
		names[row.name] = row.layer
		if row.name == "" || row.name != row.layer.String() {
			t.Errorf("row %d: name %q, Layer.String %q", i, row.name, row.layer.String())
		}
		if row.reason == "" || seenReason[row.reason] {
			t.Errorf("row %d: reason %q is empty or reused", i, row.reason)
		}
		seenReason[row.reason] = true
		if row.status < 400 {
			t.Errorf("row %d (%s): status %d", i, row.reason, row.status)
		}
		if row.policy == nil && !noPolicy[row.reason] {
			t.Errorf("row %d (%s): has no fail policy and is not in noPolicy", i, row.reason)
		}
		if row.enabled == nil || row.call == nil {
			t.Errorf("row %d (%s): no enabled predicate or call adapter", i, row.reason)
		}
	}
	if next != numLayers {
		t.Fatalf("table covers layers below %d, want all %d", next, numLayers)
	}
	if len(names) != int(numLayers) {
		t.Errorf("%d distinct layer names for %d layers", len(names), numLayers)
	}

	want := []string{
		"blocklist", "entity-graph", "account-tier", "rate-limit-account",
		"challenge", "rate-limit-profile", "rate-limit-resource", "rate-limit-path",
		"decision-journal",
	}
	if got := Reasons(); !slices.Equal(got, want) {
		t.Errorf("Reasons() = %q, want %q", got, want)
	}
	for i, reason := range want {
		if got := reasonIndex(reason); got != i {
			t.Errorf("reasonIndex(%q) = %d, want %d", reason, got, i)
		}
	}
	if got := reasonIndex("no-such-layer"); got != -1 {
		t.Errorf("reasonIndex of an unknown reason = %d, want -1", got)
	}

	wantNames := []string{"blocklist", "entity", "account", "challenge", "profile", "resource", "path", "decision"}
	for l := LayerBlocklist; l < numLayers; l++ {
		if l.String() != wantNames[l] {
			t.Errorf("Layer(%d).String() = %q, want %q", l, l.String(), wantNames[l])
		}
		if got := degradedNames[1<<l]; got != l.String() {
			t.Errorf("degradedNames[1<<%d] = %q, want %q", l, got, l.String())
		}
	}
	if got, want := degradedNames[1<<LayerBlocklist|1<<LayerPath], "blocklist,path"; got != want {
		t.Errorf("two-layer degraded value %q, want %q", got, want)
	}
	if got := Layer(numLayers).String(); got != "unknown" {
		t.Errorf("out-of-range Layer.String = %q", got)
	}
}
