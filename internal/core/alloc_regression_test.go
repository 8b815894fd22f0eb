package core

// Server-tier allocation-regression tests, the counterpart of PR 2's
// client-side alloc tests: steady-state Allocate must not touch the heap
// at all, and Upload may allocate only the replacement entry slices that
// the immutable-once-published global table requires (one per merged
// cell — what lets every extraction and delta borrow entries without
// copying).

import (
	"context"
	"testing"

	"coca/internal/model"
	"coca/internal/vecmath"
	"coca/internal/xrand"
)

func TestServerAllocateSteadyStateAllocs(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	ctx := context.Background()
	status := neutralStatus(0)
	// Warm up: first allocation grows the session view and scratch to
	// their high-water sizes.
	for i := 0; i < 3; i++ {
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		status.LastVersion = d.Version
	}
	allocs := testing.AllocsPerRun(20, func() {
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		status.LastVersion = d.Version
	})
	if allocs != 0 {
		t.Errorf("steady-state Allocate: %.1f allocs/op, want 0", allocs)
	}
}

func TestServerUploadSteadyStateAllocs(t *testing.T) {
	srv := smallServer(t)
	sess := testSession(t, srv, 0)
	ctx := context.Background()
	vec := xrand.NormalVector(xrand.New(3), model.Dim)
	vecmath.Normalize(vec)
	upd := UpdateReport{
		Cells: []UpdateCell{
			{Class: 1, Layer: 2, Count: 2, Vec: vec},
			{Class: 3, Layer: 5, Count: 1, Vec: vec},
		},
		Freq: make([]float64, 10),
	}
	upd.Freq[1] = 4
	if err := sess.Upload(ctx, upd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sess.Upload(ctx, upd); err != nil {
			t.Fatal(err)
		}
	})
	// One replacement entry per merged cell is the immutable-entry
	// invariant's cost; its probe staging is paid by the first staged
	// extraction, not by the merge. Anything beyond it is a regression.
	if max := float64(len(upd.Cells)); allocs > max {
		t.Errorf("steady-state Upload: %.1f allocs/op, want <= %.0f (one replacement slice per merged cell)", allocs, max)
	}
}
