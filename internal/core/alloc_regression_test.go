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
	var held []CellRef
	for i := 0; i < 3; i++ {
		d, err := sess.Allocate(ctx, status)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for _, c := range d.Cells[:2] {
				held = append(held, CellRef{Site: c.Site, Class: c.Class})
			}
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

	// Each round, merge into two held cells and allocate again: the delta
	// carries both fresh entries. A wire allocation stages neither, so the
	// round costs the merges' replacement entries alone (0 allocs per
	// fresh cell in Allocate); an in-process allocation widens each fresh
	// entry on its first read.
	vec := xrand.NormalVector(xrand.New(5), model.Dim)
	vecmath.Normalize(vec)
	upd := UpdateReport{Freq: make([]float64, 10)} // Φ unchanged: same ACA result
	for _, ref := range held {
		upd.Cells = append(upd.Cells, UpdateCell{Class: ref.Class, Layer: ref.Site, Count: 1, Vec: vec})
	}
	round := func(actx context.Context) func() {
		return func() {
			if err := sess.Upload(ctx, upd); err != nil {
				t.Fatal(err)
			}
			d, err := sess.Allocate(actx, status)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Cells) != len(held) {
				t.Fatalf("delta carries %d cells, want the %d merged ones", len(d.Cells), len(held))
			}
			status.LastVersion = d.Version
		}
	}
	wire := testing.AllocsPerRun(20, round(ForWire(ctx)))
	if max := float64(len(upd.Cells)); wire > max {
		t.Errorf("merge + wire Allocate: %.1f allocs/op, want <= %.0f (the replacement entries; no staging)", wire, max)
	}
	if inProc := testing.AllocsPerRun(20, round(ctx)); inProc <= wire {
		t.Errorf("merge + in-process Allocate: %.1f allocs/op, not above the wire round's %.1f: the fresh cells were not staged", inProc, wire)
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
