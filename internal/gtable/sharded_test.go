package gtable

import (
	"fmt"
	"sync"
	"testing"

	"coca/internal/vecmath"
)

func axis(dim, hot int) []float32 {
	v := make([]float32, dim)
	v[hot] = 1
	return v
}

// cellVersion reads the write version of (class, layer); 0 means the cell
// was never written.
func cellVersion(s *Sharded, class, layer int) uint64 {
	row := &s.rows[class]
	row.mu.RLock()
	defer row.mu.RUnlock()
	return row.vers[layer]
}

// populated counts the table's non-nil entries through the bulk sweep.
func populated(s *Sharded) int { return len(s.AppendCells(nil)) }

// extract is an unstaged ExtractLayerInto into fresh scratch.
func extract(s *Sharded, layer int, classes []int) ([]int, [][]float32, []uint64) {
	cls, entries, vers, _, _ := s.ExtractLayerInto(layer, classes, false, nil, nil, nil, nil, nil)
	return cls, entries, vers
}

func TestShardedFromTableSharesEntries(t *testing.T) {
	tbl := New(3, 2, 4)
	if err := tbl.Set(1, 1, axis(4, 2)); err != nil {
		t.Fatal(err)
	}
	s := ShardedFromTable(tbl, 16)
	if n := populated(s); n != 1 {
		t.Fatalf("populated = %d", n)
	}
	if got := s.Get(1, 1); got == nil || got[2] != 1 {
		t.Fatalf("entry not carried over: %v", got)
	}
	if &s.rows[1].vecs[1][0] != &tbl.Get(1, 1)[0] {
		t.Fatal("sharded table must borrow the source entry, not copy it")
	}
	if cellVersion(s, 1, 1) != 1 {
		t.Fatalf("initial version = %d, want 1", cellVersion(s, 1, 1))
	}
	if cellVersion(s, 0, 0) != 0 {
		t.Fatal("absent cell must have version 0")
	}
	// A write to the sharded table replaces the borrowed entry; it must
	// never reach the source table.
	if err := s.Set(1, 1, axis(4, 0), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(1, 1)[2] != 1 {
		t.Fatal("sharded table aliased the source")
	}
}

func TestShardedMergeMovesEntryAndBumpsVersion(t *testing.T) {
	s := NewSharded(2, 2, 4)
	if err := s.Set(0, 0, axis(4, 0), 10); err != nil {
		t.Fatal(err)
	}
	v0 := cellVersion(s, 0, 0)
	update := axis(4, 1)
	if err := s.Merge(0, 0, update, 0.99, 5, 0); err != nil {
		t.Fatal(err)
	}
	if cellVersion(s, 0, 0) != v0+1 {
		t.Fatalf("version %d after merge, want %d", cellVersion(s, 0, 0), v0+1)
	}
	got := s.Get(0, 0)
	if vecmath.Cosine(got, update) <= 0 {
		t.Fatalf("entry did not move toward update: %v", got)
	}
	if vecmath.Cosine(got, axis(4, 0)) <= 0 {
		t.Fatal("entry overshot the old center entirely")
	}
}

func TestShardedMergeIntoAbsentCellStoresUpdate(t *testing.T) {
	s := NewSharded(1, 1, 3)
	if err := s.Merge(0, 0, axis(3, 1), 0.99, 2, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.Get(0, 0); got == nil || got[1] != 1 {
		t.Fatalf("absent-cell merge did not store the update: %v", got)
	}
	if cellVersion(s, 0, 0) != 1 {
		t.Fatalf("version = %d", cellVersion(s, 0, 0))
	}
}

func TestShardedMergeValidation(t *testing.T) {
	s := NewSharded(2, 2, 3)
	if err := s.Merge(5, 0, axis(3, 0), 0.9, 1, 0); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := s.Merge(0, 0, axis(2, 0), 0.9, 1, 0); err == nil {
		t.Error("wrong dim accepted")
	}
	if err := s.Merge(0, 0, axis(3, 0), 1.5, 1, 0); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if err := s.Merge(0, 0, axis(3, 0), 0.9, 0, 0); err == nil {
		t.Error("zero local frequency accepted")
	}
	if err := s.Merge(0, 0, make([]float32, 3), 0.9, 1, 0); err == nil {
		t.Error("zero vector into absent cell accepted")
	}
}

func TestShardedSupportCap(t *testing.T) {
	s := NewSharded(1, 1, 4)
	if err := s.Set(0, 0, axis(4, 0), 10); err != nil {
		t.Fatal(err)
	}
	update := axis(4, 1)
	// Many capped merges keep a constant adaptation rate, so the entry
	// converges near the update instead of freezing.
	for i := 0; i < 80; i++ {
		if err := s.Merge(0, 0, update, 0.99, 5, 20); err != nil {
			t.Fatal(err)
		}
	}
	if cos := vecmath.Cosine(s.Get(0, 0), update); cos < 0.95 {
		t.Fatalf("capped support should track updates: cos %v", cos)
	}
}

func TestShardedExtractLayerInto(t *testing.T) {
	s := NewSharded(4, 2, 3)
	for _, c := range []int{0, 2, 3} {
		if err := s.Set(c, 1, axis(3, c%3), 1); err != nil {
			t.Fatal(err)
		}
	}
	cls, entries, vers := extract(s, 1, []int{0, 1, 2})
	if len(cls) != 2 || cls[0] != 0 || cls[1] != 2 {
		t.Fatalf("cls = %v", cls)
	}
	if len(entries) != 2 || len(vers) != 2 {
		t.Fatalf("entries/vers length %d/%d", len(entries), len(vers))
	}
	if vers[0] != 1 || vers[1] != 1 {
		t.Fatalf("vers = %v", vers)
	}
	if err := s.Merge(2, 1, axis(3, 1), 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, _, vers = extract(s, 1, []int{0, 2})
	if vers[0] != 1 || vers[1] != 2 {
		t.Fatalf("post-merge vers = %v", vers)
	}
}

// TestExtractLayerIntoStagesOnlyWhenAsked pins the staging contract: an
// unstaged read neither installs nor returns a mirror, and the first
// staged read afterwards installs a bitwise-exact one that every later
// staged read borrows — unstaged reads in between leave it in place.
func TestExtractLayerIntoStagesOnlyWhenAsked(t *testing.T) {
	s := NewSharded(3, 2, 4)
	if err := s.Set(1, 0, axis(4, 1), 8); err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2}
	cls, entries, vers, wide, norm2 := s.ExtractLayerInto(0, all, false, nil, nil, nil, nil, nil)
	if len(cls) != 1 || len(wide) != 1 || wide[0] != nil || norm2[0] != 0 {
		t.Fatalf("unstaged read returned staging: cls %v wide %v norm2 %v", cls, wide, norm2)
	}
	if s.rows[1].wide[0] != nil {
		t.Fatal("unstaged read installed a mirror")
	}
	cls, entries, vers, wide, norm2 = s.ExtractLayerInto(0, all, true, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
	installed := s.rows[1].wide[0]
	if installed == nil || &installed[0] != &wide[0][0] {
		t.Fatal("first staged read must install the mirror it returns")
	}
	if err := checkStaging(entries[0], wide[0], norm2[0]); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []bool{false, true} {
		cls, entries, vers, wide, norm2 = s.ExtractLayerInto(0, all, stage, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
		if got := s.rows[1].wide[0]; &got[0] != &installed[0] {
			t.Fatalf("stage=%v read replaced the installed mirror", stage)
		}
	}
	if &wide[0][0] != &installed[0] {
		t.Fatal("a later staged read must borrow the installed mirror")
	}
}

func TestShardedConcurrentMergeAndExtract(t *testing.T) {
	const classes, layers, dim = 16, 6, 8
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, (c+j)%dim), 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := make([]int, classes)
	for i := range all {
		all[i] = i
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24) // at most one error per goroutine
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := (w*31 + i) % classes
				j := (w + i) % layers
				if err := s.Merge(c, j, axis(dim, (w+i)%dim), 0.99, 2, 64); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		// Unstaged and staged readers race the merges and each other.
		// Staged readers race to install a cell's mirror: whoever wins,
		// every returned mirror must be the exact staging of the entry
		// returned with it. Unstaged readers must never see one.
		for _, stage := range []bool{false, true} {
			wg.Add(1)
			go func(w int, stage bool) {
				defer wg.Done()
				var (
					cls     []int
					entries [][]float32
					vers    []uint64
					wide    [][]float64
					norm2   []float64
				)
				for i := 0; i < 100; i++ {
					cls, entries, vers, wide, norm2 = s.ExtractLayerInto((w+i)%layers, all, stage,
						cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
					if len(cls) != classes || len(vers) != classes || len(wide) != classes || len(norm2) != classes {
						errs <- fmt.Errorf("partial extract (stage=%v): %d classes", stage, len(cls))
						return
					}
					for k, e := range entries {
						if !stage {
							if wide[k] != nil || norm2[k] != 0 {
								errs <- fmt.Errorf("class %d: unstaged read returned staging", cls[k])
								return
							}
						} else if err := checkStaging(e, wide[k], norm2[k]); err != nil {
							errs <- fmt.Errorf("class %d: %v", cls[k], err)
							return
						}
					}
				}
				if !stage {
					_ = s.Snapshot()
				}
			}(w, stage)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkStaging reports whether (wide, norm2) is the exact probe staging of
// entry e.
func checkStaging(e []float32, wide []float64, norm2 float64) error {
	want, _ := vecmath.WidenRow(e)
	if len(wide) != len(want) {
		return fmt.Errorf("mirror length %d, entry %d", len(wide), len(e))
	}
	for i := range want {
		if wide[i] != want[i] {
			return fmt.Errorf("mirror[%d] = %v, want %v", i, wide[i], want[i])
		}
	}
	if want := vecmath.SquaredNorm(e); norm2 != want {
		return fmt.Errorf("norm2 = %v, want %v", norm2, want)
	}
	return nil
}

func TestMergePeerRecencyWeighting(t *testing.T) {
	s := NewSharded(2, 2, 4)
	if err := s.Set(0, 0, axis(4, 0), 64); err != nil {
		t.Fatal(err)
	}
	// No local evidence since the peer's reference point (sinceEv equals
	// the ledger) and zero inertia: the peer entry replaces the local one.
	ver, ev, err := s.MergePeer(0, 0, axis(4, 1), 32, 64, 0, 160)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("version = %d, want 2", ver)
	}
	if ev != 96 {
		t.Fatalf("evidence total = %v, want 96", ev)
	}
	got := s.Get(0, 0)
	if vecmath.Cosine(got, axis(4, 1)) < 0.999 {
		t.Fatalf("idle cell did not adopt the peer entry: %v", got)
	}

	// With local evidence since the sync point equal to the peer's, the
	// merge is an even blend, not a replacement.
	if err := s.Set(1, 0, axis(4, 0), 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MergePeer(1, 0, axis(4, 1), 32, 32, 0, 160); err != nil {
		t.Fatal(err)
	}
	got = s.Get(1, 0)
	if c0, c1 := vecmath.Cosine(got, axis(4, 0)), vecmath.Cosine(got, axis(4, 1)); c0 < 0.6 || c1 < 0.6 {
		t.Fatalf("active cell not blended: cos0=%v cos1=%v", c0, c1)
	}
}

func TestMergePeerAbsentAndValidation(t *testing.T) {
	s := NewSharded(2, 2, 4)
	ver, ev, err := s.MergePeer(0, 1, axis(4, 3), 8, 0, 16, 160)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || ev != 8 {
		t.Fatalf("absent-cell merge: ver=%d ev=%v", ver, ev)
	}
	if got := s.Get(0, 1); got == nil || got[3] != 1 {
		t.Fatalf("absent cell not adopted: %v", got)
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 0), 0, 0, 16, 160); err == nil {
		t.Fatal("zero evidence accepted")
	}
	if _, _, err := s.MergePeer(0, 0, axis(3, 0), 1, 0, 16, 160); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if _, _, err := s.MergePeer(9, 0, axis(4, 0), 1, 0, 16, 160); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 0), 1, 0, -1, 160); err == nil {
		t.Fatal("negative inertia accepted")
	}
}

func TestEvidenceLedgerMonotone(t *testing.T) {
	s := NewSharded(1, 1, 4)
	if err := s.Merge(0, 0, axis(4, 0), 0.99, 10, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(0, 0, axis(4, 1), 0.99, 30, 20); err != nil {
		t.Fatal(err)
	}
	// Support capped at 20 (checked by the visit below), but the ledger
	// keeps the full 40.
	var ledger float64
	s.ForEachCell(func(class, layer int, _ []float32, ver uint64, support, evTotal float64) {
		if class != 0 || layer != 0 {
			t.Fatalf("unexpected cell (%d,%d)", class, layer)
		}
		if ver != 2 || support != 20 {
			t.Fatalf("cell state ver=%d support=%v", ver, support)
		}
		ledger = evTotal
	})
	if ledger != 40 {
		t.Fatalf("evidence ledger = %v, want 40", ledger)
	}
	if _, _, err := s.MergePeer(0, 0, axis(4, 1), 5, 38, 16, 20); err != nil {
		t.Fatal(err)
	}
	s.ForEachCell(func(_, _ int, _ []float32, _ uint64, _, evTotal float64) { ledger = evTotal })
	if ledger != 45 {
		t.Fatalf("ledger after peer merge = %v, want 45", ledger)
	}
}

func TestForEachCellOrderAndSkip(t *testing.T) {
	s := NewSharded(3, 2, 4)
	if err := s.Set(2, 0, axis(4, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, 1, axis(4, 1), 1); err != nil {
		t.Fatal(err)
	}
	var visited [][2]int
	s.ForEachCell(func(class, layer int, vec []float32, ver uint64, _, _ float64) {
		if vec == nil || ver == 0 {
			t.Fatalf("visited cell (%d,%d) without state", class, layer)
		}
		visited = append(visited, [2]int{class, layer})
	})
	want := [][2]int{{0, 1}, {2, 0}}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("visit order %v, want %v", visited, want)
	}
}

// TestAppendCellsMatchesForEachCell checks the bulk sweep against the
// callback scan, both below and above the parallel fan-out threshold.
func TestAppendCellsMatchesForEachCell(t *testing.T) {
	for _, classes := range []int{5, sweepParallelMinRows * 3} {
		s := NewSharded(classes, 4, 8)
		r := uint64(1)
		for c := 0; c < classes; c++ {
			for j := 0; j < 4; j++ {
				r = r*6364136223846793005 + 1442695040888963407
				if r%3 == 0 {
					continue // leave a third of the cells absent
				}
				if err := s.Set(c, j, axis(8, int(r%8)), float64(1+r%7)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var want []Cell
		s.ForEachCell(func(class, layer int, vec []float32, ver uint64, support, evTotal float64) {
			want = append(want, Cell{Class: class, Layer: layer, Vec: vec, Ver: ver, Support: support, EvTotal: evTotal})
		})
		got := s.AppendCells(nil)
		if len(got) != len(want) {
			t.Fatalf("classes=%d: %d cells, want %d", classes, len(got), len(want))
		}
		for i := range got {
			if got[i].Class != want[i].Class || got[i].Layer != want[i].Layer ||
				got[i].Ver != want[i].Ver || got[i].Support != want[i].Support ||
				got[i].EvTotal != want[i].EvTotal || &got[i].Vec[0] != &want[i].Vec[0] {
				t.Fatalf("classes=%d: cell %d = %+v, want %+v", classes, i, got[i], want[i])
			}
		}
		// Appending onto existing scratch preserves the prefix.
		pre := []Cell{{Class: -1}}
		both := s.AppendCells(pre)
		if both[0].Class != -1 || len(both) != 1+len(want) {
			t.Fatal("AppendCells must append to the given scratch")
		}
	}
}

// TestExtractLayerIntoBorrowsLiveEntries verifies the extraction returns
// the live (immutable) entry slices without copying, and that a later
// merge replaces — not mutates — what was borrowed.
func TestExtractLayerIntoBorrowsLiveEntries(t *testing.T) {
	s := NewSharded(3, 2, 4)
	if err := s.Set(1, 0, axis(4, 1), 8); err != nil {
		t.Fatal(err)
	}
	cls, entries, vers := extract(s, 0, []int{0, 1, 2})
	if len(cls) != 1 || cls[0] != 1 || vers[0] != 1 {
		t.Fatalf("extract = %v %v", cls, vers)
	}
	borrowed := entries[0]
	if &borrowed[0] != &s.rows[1].vecs[0][0] {
		t.Fatal("extraction must borrow the live entry, not copy it")
	}
	snap := vecmath.Clone(borrowed)
	if err := s.Merge(1, 0, axis(4, 3), 0.99, 4, 0); err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		if borrowed[i] != snap[i] {
			t.Fatal("merge mutated a published entry; merges must replace slices")
		}
	}
	if _, _, vers = extract(s, 0, []int{0, 1, 2}); len(vers) != 1 || vers[0] != 2 {
		t.Fatalf("re-extract vers = %v", vers)
	}
}

// TestSnapshotAndSweepUnderMergeContention hammers the table with
// concurrent Merge writers while snapshots, extractions and bulk sweeps
// run — the lock-held-while-allocating fix's regression test (run with
// -race). Every observed entry must be a unit vector (no torn reads), and
// the sweeps must terminate while writers are still running.
func TestSnapshotAndSweepUnderMergeContention(t *testing.T) {
	const classes, layers, dim = 64, 6, 16
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, (c+j)%dim), 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := make([]float32, dim)
			r := uint64(w + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				for i := range u {
					u[i] = float32(int(r>>16)%17) - 8
				}
				u[int(r%dim)] = 9
				if err := s.Merge(int(r%classes), int((r>>8)%layers), u, 0.99, 1, 160); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	classList := make([]int, classes)
	for i := range classList {
		classList[i] = i
	}
	var cells []Cell
	for i := 0; i < 50; i++ {
		snap := s.Snapshot()
		for c := 0; c < classes; c++ {
			for j := 0; j < layers; j++ {
				v := snap.Get(c, j)
				if v == nil {
					t.Fatalf("snapshot lost cell (%d,%d)", c, j)
				}
				if n := vecmath.Dot(v, v); n < 0.99 || n > 1.01 {
					t.Fatalf("torn read: |v|² = %v at (%d,%d)", n, c, j)
				}
			}
		}
		cells = s.AppendCells(cells[:0])
		if len(cells) != classes*layers {
			t.Fatalf("sweep saw %d cells, want %d", len(cells), classes*layers)
		}
		_, entries, _ := extract(s, i%layers, classList)
		for _, v := range entries {
			if n := vecmath.Dot(v, v); n < 0.99 || n > 1.01 {
				t.Fatalf("torn extract: |v|² = %v", n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedSteadyStateAllocs pins the allocation profile of the sweep
// and extraction hot paths once scratch has reached its high-water size.
func TestShardedSteadyStateAllocs(t *testing.T) {
	const classes, layers, dim = 48, 4, 8 // sequential sweep regime
	s := NewSharded(classes, layers, dim)
	for c := 0; c < classes; c++ {
		for j := 0; j < layers; j++ {
			if err := s.Set(c, j, axis(dim, c%dim), 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	classList := make([]int, classes)
	for i := range classList {
		classList[i] = i
	}
	cells := s.AppendCells(nil)
	if allocs := testing.AllocsPerRun(50, func() {
		cells = s.AppendCells(cells[:0])
	}); allocs != 0 {
		t.Errorf("AppendCells steady state: %.1f allocs/op, want 0", allocs)
	}
	cls, entries, vers, wide, norm2 := s.ExtractLayerInto(0, classList, false, nil, nil, nil, nil, nil)
	if allocs := testing.AllocsPerRun(50, func() {
		cls, entries, vers, wide, norm2 = s.ExtractLayerInto(1, classList, false, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
	}); allocs != 0 {
		t.Errorf("unstaged ExtractLayerInto steady state: %.1f allocs/op, want 0", allocs)
	}
	// Staged extraction: a freshly published cell carries no mirror, and
	// an unstaged read of it allocates nothing and leaves it so; the first
	// staged read installs the exact staging, and later reads borrow it
	// without allocating.
	if err := s.Merge(5, 2, axis(dim, 1), 0.99, 1, 0); err != nil {
		t.Fatal(err)
	}
	if s.rows[5].wide[2] != nil {
		t.Fatal("publish must leave the fresh entry unstaged")
	}
	one := []int{5}
	if allocs := testing.AllocsPerRun(50, func() {
		cls, entries, vers, wide, norm2 = s.ExtractLayerInto(2, one, false, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
	}); allocs != 0 {
		t.Errorf("unstaged ExtractLayerInto of a fresh cell: %.1f allocs/op, want 0", allocs)
	}
	if s.rows[5].wide[2] != nil {
		t.Fatal("unstaged reads must leave the fresh entry unstaged")
	}
	cls, entries, vers, wide, norm2 = s.ExtractLayerInto(2, one, true, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
	installed := s.rows[5].wide[2]
	if installed == nil || &installed[0] != &wide[0][0] {
		t.Fatal("first staged extraction must install the mirror it returns")
	}
	if err := checkStaging(entries[0], wide[0], norm2[0]); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		cls, entries, vers, wide, norm2 = s.ExtractLayerInto(2, one, true, cls[:0], entries[:0], vers[:0], wide[:0], norm2[:0])
	}); allocs != 0 {
		t.Errorf("staged ExtractLayerInto of a staged cell: %.1f allocs/op, want 0", allocs)
	}
	if &wide[0][0] != &installed[0] {
		t.Fatal("later staged extractions must borrow the installed mirror")
	}
	var freqDst []float64
	f := NewFrequencies(classes)
	freqDst = f.SnapshotInto(freqDst)
	if allocs := testing.AllocsPerRun(50, func() {
		freqDst = f.SnapshotInto(freqDst)
	}); allocs != 0 {
		t.Errorf("SnapshotInto steady state: %.1f allocs/op, want 0", allocs)
	}
}
