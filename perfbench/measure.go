package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coca/internal/core"
	"coca/internal/federation"
	"coca/internal/semantics"
	"coca/internal/telemetry"
	"coca/internal/xrand"
)

// maxMeasure bounds an episode's measured phase when its fixed virtual
// window takes longer than its share of --seconds, so a run always ends
// well within its time limit.
const maxMeasure = 30 * time.Second

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run.
type report struct {
	metrics           []metric
	checks            []check
	attempted, failed int
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit})
}

// tally accumulates what the episodes of one run measured.
type tally struct {
	meters   []*clientMeter // every episode's clients
	round    int            // run-wide round counter, the spans' round id
	diverged []float64      // per episode, on the wire workload

	// Timed readings, one per episode (set-up, heap) or per slice of
	// rounds (throughput, frame and stall times). The run reports their
	// medians, so a burst of load from outside the benchmark moves a few
	// slices, not the result.
	setupS, heapMB, framesPerS []float64
	frameP50, frameP99         []float64
	stallP50, stallP90         []float64
	frameBuf, stallBuf         []float64     // the open slices' samples
	frameWall                  time.Duration // the open frame slice's rounds

	roundMs            []float64 // engine round wall, measured rounds
	idleNs, capacityNs float64   // barrier idle vs workers × round wall
	tracedNs, plainNs  float64   // round wall incl. coordination, by tracing
	tracedF, plainF    int       // frames in those rounds
	syncMs, collectMs  []float64
	applyMs, aeUs      []float64
	syncOps, pullOps   opCount
	queueDepthMax      int
	queueWaitUs        []float64
	workers            int
	nodeRounds         int

	// Deltas of the program's own counters over the measured phases.
	probeHits, probeMisses          uint64
	allocs, deltaCells, evicts      uint64
	merges                          uint64
	fedBytes, fedCells, digestBytes int64
	repaired, aeRounds              int
}

// counters snapshots the program's own telemetry.
type counters struct {
	probeHits, probeMisses     uint64
	allocs, deltaCells, evicts uint64
	merges                     uint64
	fed                        []federation.SyncStats
}

func (b *bench) counters() counters {
	c := counters{
		allocs:     telemetry.CoreAllocations.Load(),
		deltaCells: telemetry.CoreDeltaCells.Load(),
		evicts:     telemetry.CoreDeltaEvictions.Load(),
		merges:     telemetry.CoreUploadMerges.Load(),
	}
	for site := 0; site < b.space.Arch.NumLayers; site++ {
		c.probeHits += telemetry.CacheProbeHits.Load(site)
		c.probeMisses += telemetry.CacheProbeMisses.Load(site)
	}
	for _, n := range b.nodes {
		c.fed = append(c.fed, n.Stats())
	}
	return c
}

// addCounters folds one measured phase's counter deltas into the tally.
func (t *tally) addCounters(before, after counters) {
	t.probeHits += after.probeHits - before.probeHits
	t.probeMisses += after.probeMisses - before.probeMisses
	t.allocs += after.allocs - before.allocs
	t.deltaCells += after.deltaCells - before.deltaCells
	t.evicts += after.evicts - before.evicts
	t.merges += after.merges - before.merges
	for i := range after.fed {
		a, p := after.fed[i], before.fed[i]
		t.fedBytes += a.BytesSent - p.BytesSent
		t.fedCells += int64(a.CellsSent - p.CellsSent)
		t.digestBytes += a.DigestBytes - p.DigestBytes
		t.repaired += a.CellsRepaired - p.CellsRepaired
		t.aeRounds += a.AntiEntropyRounds - p.AntiEntropyRounds
	}
}

// settle waits until the goroutines an episode started have ended, so the
// next episode starts from a quiet process and its heap reading does not
// hold the previous deployment.
func settle(goroutines int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after the episode, %d before the run", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// setupReps is how many episodes of a run build their deployment from
// scratch; setup_s is the median of their set-up times. Later episodes
// reuse the last shared-dataset build.
const setupReps = 5

// episodeSeed derives episode ep's stream seed from the run's seed.
func episodeSeed(seed uint64, ep int) uint64 { return xrand.HashSeed(seed, uint64(ep)) }

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// run measures a workload for the given time and checks its outputs. The
// time is split over the workload's episodes: each builds a fresh
// deployment on its own stream seed, warms it up and measures it, so one
// run averages over several client populations. With traced set the run
// reports the per-layer metrics, otherwise the end-to-end ones.
func run(w *workload, seed uint64, seconds int, traced bool) (*report, error) {
	tr := newTracer()
	t := &tally{}
	goroutines := runtime.NumGoroutine()
	rep := &report{}
	budget := time.Duration(seconds) * time.Second / time.Duration(w.episodes)
	var space *semantics.Space
	var init *core.ServerInit
	for ep := 0; ep < w.episodes; ep++ {
		if ep < setupReps {
			init = nil // build from scratch, and time it
		}
		b, err := episode(w, ep, episodeSeed(seed, ep), init, budget, traced, tr, t, rep)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		space, init = b.space, b.init
		if err := settle(goroutines); err != nil {
			return nil, err
		}
	}
	tr.setOn(false)

	var err error
	if traced {
		err = t.layerMetrics(rep, w, space, tr)
	} else {
		err = t.endToEnd(rep, space)
	}
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = t.ops(nil)
	if traced {
		spans := tr.closed()
		path := filepath.Join(".bench_build", "traces", w.name+".jsonl")
		if err := writeSpans(path, spans, selfTimes(spans)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return rep, nil
}

// episode builds one deployment, measures it and checks its outputs. The
// first episode's warm-up rounds are compared with the program's own
// drivers; every episode's frames and, on the wire workload, node ledgers
// are checked.
func episode(w *workload, ep int, seed uint64, init *core.ServerInit, budget time.Duration, traced bool, tr *tracer, t *tally, rep *report) (*bench, error) {
	t0 := time.Now()
	b, err := setup(w, seed, init, tr, t)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if init == nil {
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
	}
	defer b.close()
	t.meters = append(t.meters, b.meters...)

	r := 0
	for ; r < w.warm; r++ {
		if err := b.runRound(r, phase{prefix: ep == 0}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	before := b.counters()
	t0 = time.Now()
	// The measured phase runs for its share of the time, and at least
	// for the fixed virtual window.
	for n := 0; n < w.window || time.Since(t0) < budget; n++ {
		if time.Since(t0) > maxMeasure {
			return nil, fmt.Errorf("measured phase reached %v after %d of %d window rounds", maxMeasure, n, w.window)
		}
		// A traced run alternates traced and untraced rounds, starting
		// on the other parity in every other episode, so the episodes'
		// early rounds weigh on both sides of the tracing overhead.
		ph := phase{measured: true, virtual: n < w.window, traced: traced && (n+ep)%2 == 1}
		ph.replay = ph.traced && (n/2)%w.replayEvery == 0
		start := time.Now()
		if err := b.runRound(r, ph); err != nil {
			return nil, err
		}
		r++
		if err := t.slice(b.meters, time.Since(start), ph.traced); err != nil {
			return nil, err
		}
		if n+1 == w.window && !traced {
			// The live heap after the fixed window: this deployment, its
			// shared-dataset build and the benchmark's own records, all a
			// function of the seed and round count. Read at the end of the
			// time-based phase it would grow with the host's speed.
			t.heapMB = append(t.heapMB, liveHeap()/(1<<20))
		}
	}
	b.tr.setOn(false)
	t.addCounters(before, b.counters())

	rep.checks = append(rep.checks, check{fmt.Sprintf("frames/%d", ep), b.checkFrames(r)})
	if ep == 0 {
		rep.checks = append(rep.checks, check{"prefix-matches-driver", b.checkPrefix(seed)})
		name, err := b.checkBatch(seed)
		rep.checks = append(rep.checks, check{name, err})
	}
	if w.wire {
		diverged, err := b.checkConverged()
		rep.checks = append(rep.checks, check{fmt.Sprintf("node-ledgers-converge/%d", ep), err})
		t.diverged = append(t.diverged, float64(diverged))
	}
	return b, nil
}

// ops totals the sent and failed operations of the measured assembly
// (frames, allocates, uploads, syncs, pulls); with rep set it also reports
// each phase's counts.
func (t *tally) ops(rep *report) (attempted, failed int) {
	var frames, allocs, uploads opCount
	for _, m := range t.meters {
		frames.sent += m.frameOps.sent
		frames.failed += m.frameOps.failed
		allocs.sent += m.allocOps.sent
		allocs.failed += m.allocOps.failed
		uploads.sent += m.uploadOps.sent
		uploads.failed += m.uploadOps.failed
	}
	for _, p := range []struct {
		name string
		c    opCount
	}{{"frames", frames}, {"allocates", allocs}, {"uploads", uploads}, {"syncs", t.syncOps}, {"pulls", t.pullOps}} {
		attempted += p.c.sent
		failed += p.c.failed
		if rep != nil {
			rep.add("ops."+p.name+".sent", "count", float64(p.c.sent))
			rep.add("ops."+p.name+".succeeded", "count", float64(p.c.sent-p.c.failed))
			rep.add("ops."+p.name+".failed", "count", float64(p.c.failed))
		}
	}
	return attempted, failed
}

// gather concatenates one per-client series over all clients.
func (t *tally) gather(series func(m *clientMeter) []float64) []float64 {
	var out []float64
	for _, m := range t.meters {
		out = append(out, series(m)...)
	}
	return out
}

// Slices: each host-time metric is computed over slices of consecutive
// untraced samples, the fewest that satisfy the tail rule of the slice's
// highest percentile (p99 of frames, p90 of client-rounds), and the run
// reports the median over slices. A slice may span an episode boundary.
const (
	frameSliceLen = 100 * minTail
	stallSliceLen = 10 * minTail
)

// slice moves one measured round's samples from the meters into the open
// slices and closes each slice that is full. A traced round's samples are
// dropped, so tracing never inflates the host-time metrics.
func (t *tally) slice(meters []*clientMeter, wall time.Duration, traced bool) error {
	for _, m := range meters {
		if !traced {
			t.frameBuf = append(t.frameBuf, m.frameUs...)
			t.stallBuf = append(t.stallBuf, m.stallUs...)
		}
		m.frameUs, m.stallUs = m.frameUs[:0], m.stallUs[:0]
	}
	if traced {
		return nil
	}
	t.frameWall += wall
	if len(t.frameBuf) >= frameSliceLen {
		t.framesPerS = append(t.framesPerS, float64(len(t.frameBuf))/t.frameWall.Seconds())
		if err := percentiles(t.frameBuf, []float64{0.50, 0.99}, &t.frameP50, &t.frameP99); err != nil {
			return err
		}
		t.frameBuf, t.frameWall = t.frameBuf[:0], 0
	}
	if len(t.stallBuf) >= stallSliceLen {
		if err := percentiles(t.stallBuf, []float64{0.50, 0.90}, &t.stallP50, &t.stallP90); err != nil {
			return err
		}
		t.stallBuf = t.stallBuf[:0]
	}
	return nil
}

// percentiles appends the ps-quantiles of values to dsts, in order.
func percentiles(values, ps []float64, dsts ...*[]float64) error {
	for i, p := range ps {
		v, err := percentile(values, p)
		if err != nil {
			return err
		}
		*dsts[i] = append(*dsts[i], v)
	}
	return nil
}

// endToEnd computes the metrics a user of the system sees that hold still
// from run to run: set-up time, the virtual metrics over every episode's
// fixed window, and the live heap. The host-time metrics are reported by
// the traced run (see layerMetrics).
func (t *tally) endToEnd(rep *report, space *semantics.Space) error {
	virtualFrames, correct := 0, 0
	for _, m := range t.meters {
		virtualFrames += m.virtualFrames
		correct += m.correct
	}
	virtual := t.gather(func(m *clientMeter) []float64 { return m.virtual })
	vr := 100 * (1 - mean(virtual)/space.Arch.TotalLatencyMs())
	vp99, err := percentile(virtual, 0.99)
	if err != nil {
		return fmt.Errorf("virtual_ms_p99: %w", err)
	}
	rep.add("setup_s", "s", median(t.setupS))
	rep.add("virtual_reduction_pct", "%", vr)
	rep.add("virtual_ms_p99", "virtual_ms", vp99)
	rep.add("accuracy_pct", "%", 100*float64(correct)/float64(virtualFrames))
	rep.add("heap_mb", "MiB", median(t.heapMB))
	return nil
}
