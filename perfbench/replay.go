package main

import (
	"fmt"

	"coca/internal/cache"
	"coca/internal/dataset"
	"coca/internal/model"
	"coca/internal/semantics"
)

// replayStats times the substrate and probe calls of replayed frames.
type replayStats struct {
	frames          int
	vectors         int   // SampleVectorInto calls: probe and collection vectors
	vectorNs        int64 // their total time
	predicts        int   // PredictScratch calls (misses)
	predictNs       int64
	probes, entries int
	probeNs         int64
	inferNs         int64 // the client's own time in the replayed calls
}

// replay re-runs the traced rounds' frames outside InferBatch: the same
// SampleVectorInto, Lookup.Probe and PredictScratch calls the client made,
// on the same samples, cache layers and environment, each timed on its
// own. Each recorded Infer/InferBatch call is replayed in the client's
// order: site by site across the call's undecided frames, then the misses'
// predictions, then the vectors a confident miss collects. It fails if a
// replayed frame reaches a different decision than the client did, which
// would mean the replay measures something else.
func replay(space *semantics.Space, tr *tracer, meters []*clientMeter) (replayStats, error) {
	var st replayStats
	sc := space.NewScratch()
	var vecs [][]float32
	var lks []*cache.Lookup
	for _, m := range meters {
		k, cfg := m.k, m.cfg
		lcfg := cache.Config{Alpha: cfg.Alpha, Theta: cfg.Theta}
		frame := 0
		for _, rr := range m.replay {
			var active []*cache.Layer
			layers := rr.local.Layers()
			for i := range layers {
				if layers[i].Len() > 0 {
					active = append(active, &layers[i])
				}
			}
			st.inferNs += rr.inferNs
			off := 0
			for _, n := range rr.calls {
				for len(vecs) < n {
					vecs = append(vecs, make([]float32, model.Dim))
					lks = append(lks, cache.NewLookup(lcfg))
				}
				call := replayCall{space: space, tr: tr, st: &st, sc: sc, env: rr.env, active: active,
					smps: rr.samples[off : off+n], vecs: vecs[:n], lks: lks[:n],
					req: reqID{Client: int32(k), Frame: int64(frame)}, collect: !cfg.DisableCollection, delta: cfg.DeltaCollect}
				got := call.run()
				for i, want := range rr.results[off : off+n] {
					if want.Hit != got[i].Hit || want.HitLayer != got[i].HitLayer || want.Pred != got[i].Pred {
						return st, fmt.Errorf("client %d replayed frame %d: hit=%v site=%d class=%d, client had hit=%v site=%d class=%d",
							k, frame+i, got[i].Hit, got[i].HitLayer, got[i].Pred, want.Hit, want.HitLayer, want.Pred)
					}
				}
				off += n
				frame += n
			}
		}
	}
	return st, nil
}

// replayCall is one recorded Infer/InferBatch call being replayed.
type replayCall struct {
	space   *semantics.Space
	tr      *tracer
	st      *replayStats
	sc      *semantics.Scratch
	env     *semantics.Env
	active  []*cache.Layer
	smps    []dataset.Sample
	vecs    [][]float32
	lks     []*cache.Lookup
	req     reqID
	collect bool
	delta   float64
}

// decision is a replayed frame's outcome in the client's result terms.
type decision struct {
	Hit      bool
	HitLayer int
	Pred     int
}

func (c *replayCall) run() []decision {
	st, now := c.st, c.tr.now
	id := c.tr.begin("replay.infer", noSpan, c.req)
	defer c.tr.end(id)
	out := make([]decision, len(c.smps))
	alive := make([]int, len(c.smps))
	for s := range c.smps {
		out[s] = decision{HitLayer: -1, Pred: -1}
		c.lks[s].Reset()
		alive[s] = s
	}
	st.frames += len(c.smps)
	for _, layer := range c.active {
		if len(alive) == 0 {
			break
		}
		for _, s := range alive {
			c.vector(id, s, layer.Site)
		}
		next := alive[:0]
		for _, s := range alive {
			t0 := now()
			pr := c.lks[s].Probe(layer, c.vecs[s])
			t1 := now()
			c.tr.add("cache.probe", id, c.req, t0, t1)
			st.probes++
			st.entries += layer.Len()
			st.probeNs += t1 - t0
			if pr.Hit {
				out[s] = decision{Hit: true, HitLayer: layer.Site, Pred: pr.Class}
			} else {
				next = append(next, s)
			}
		}
		alive = next
	}
	confident := make([]bool, len(c.smps))
	for _, s := range alive {
		t0 := now()
		pred := c.space.PredictScratch(c.sc, c.smps[s], c.env)
		t1 := now()
		c.tr.add("semantics.predict", id, c.req, t0, t1)
		st.predicts++
		st.predictNs += t1 - t0
		out[s].Pred = pred.Class
		confident[s] = c.collect && float64(pred.Top2Gap()) > c.delta
	}
	// A confident miss is collected: the client draws the vectors of
	// every site past the deepest one it probed.
	deepest := -1
	if len(c.active) > 0 {
		deepest = c.active[len(c.active)-1].Site
	}
	for _, s := range alive {
		if confident[s] {
			for j := deepest + 1; j < c.space.Arch.NumLayers; j++ {
				c.vector(id, s, j)
			}
		}
	}
	return out
}

// vector times one SampleVectorInto call for frame s at site.
func (c *replayCall) vector(parent int32, s, site int) {
	now := c.tr.now
	t0 := now()
	c.space.SampleVectorInto(c.vecs[s], c.smps[s], site, c.env, c.sc)
	t1 := now()
	c.tr.add("semantics.vector", parent, c.req, t0, t1)
	c.st.vectors++
	c.st.vectorNs += t1 - t0
}
