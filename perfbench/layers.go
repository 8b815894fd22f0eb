package main

import (
	"coca/internal/model"
	"coca/internal/semantics"
)

// layerMetrics computes the per-layer metrics of a traced run. Each is
// named after the layer it measures; WORKLOADS.md maps each to the metric
// it should move.
func (t *tally) layerMetrics(rep *report, w *workload, space *semantics.Space, tr *tracer) error {
	pct := func(v []float64, p float64) (float64, error) {
		if len(v) == 0 {
			return 0, nil // the workload does not exercise this layer
		}
		return percentile(v, p)
	}
	var inferNs, wireFrames, allocBytes, uploadBytes int64
	var inferFrames, virtualFrames, hits, clientRounds int
	var exitSum float64
	for _, m := range t.meters {
		inferNs += m.inferNs
		inferFrames += m.inferFrames
		virtualFrames += m.virtualFrames
		hits += m.hits
		exitSum += m.exitSiteSum
		clientRounds += m.clientRounds
		wireFrames += m.wireFrames
		allocBytes += m.allocBytes
		uploadBytes += m.uploadBytes
	}
	nsPerFrame := ratio(float64(inferNs), float64(inferFrames))

	// Host time as the user sees it, from the untraced rounds. These are
	// not end-to-end metrics only because the host's speed drifts by
	// 25–35% over minutes, so no bound can hold them from run to run.
	rep.add("frames_per_s", "frames/s", median(t.framesPerS))
	rep.add("frame_us_p50", "us", median(t.frameP50))
	rep.add("frame_us_p99", "us", median(t.frameP99))
	rep.add("stall_us_p50", "us", median(t.stallP50))
	rep.add("stall_us_p90", "us", median(t.stallP90))

	// engine
	rep.add("engine.round_ms_p50", "ms", median(t.roundMs))
	rep.add("engine.barrier_wait_frac", "ratio", ratio(t.idleNs, t.capacityNs))
	rep.add("engine.workers", "count", float64(t.workers))

	// core.client
	beginP50, err := pct(t.gather(func(m *clientMeter) []float64 { return m.beginUs }), 0.5)
	if err != nil {
		return err
	}
	endP50, err := pct(t.gather(func(m *clientMeter) []float64 { return m.endUs }), 0.5)
	if err != nil {
		return err
	}
	// semantics and cache, from the replay
	tr.setOn(true)
	st, replayErr := replay(space, tr, t.meters)
	tr.setOn(false)
	rep.checks = append(rep.checks, check{"replay-matches-client", replayErr})
	spans := tr.closed()
	viewApply := median(selfByName(spans, selfTimes(spans), "core.client.begin_round")) / 1e3
	rep.add("core.client.infer_us_per_frame", "us", nsPerFrame/1e3)
	rep.add("core.client.begin_round_us_p50", "us", beginP50)
	rep.add("core.client.end_round_us_p50", "us", endP50)
	rep.add("core.client.view_apply_us", "us", viewApply)

	frames := float64(st.frames)
	rep.add("semantics.vector_ns", "ns", ratio(float64(st.vectorNs), float64(st.vectors)))
	rep.add("semantics.vectors_per_frame", "count", ratio(float64(st.vectors), frames))
	rep.add("semantics.predict_us", "us", ratio(float64(st.predictNs), float64(st.predicts))/1e3)
	rep.add("semantics.share_of_infer", "ratio", ratio(float64(st.vectorNs+st.predictNs), float64(st.inferNs)))
	entriesPerProbe := ratio(float64(st.entries), float64(st.probes))
	rep.add("cache.probe_ns", "ns", ratio(float64(st.probeNs), float64(st.probes)))
	rep.add("cache.probe_ns_per_entry", "ns", ratio(float64(st.probeNs), float64(st.entries)))
	rep.add("cache.entries_per_probe", "count", entriesPerProbe)
	// Computed, not measured: each entry's widened f64 row is read once.
	rep.add("cache.bytes_per_probe", "B", entriesPerProbe*model.Dim*8)

	// cache, from the program's probe counters and the clients' results
	probes := float64(t.probeHits + t.probeMisses)
	rep.add("cache.probes_per_frame", "count", ratio(probes, float64(inferFrames)))
	rep.add("cache.hits_per_probe", "ratio", ratio(float64(t.probeHits), probes))
	rep.add("cache.hit_ratio", "ratio", ratio(float64(hits), float64(virtualFrames)))
	rep.add("cache.exit_site_mean", "site", ratio(exitSum, float64(virtualFrames)))
	rep.add("cache.active_sites", "count", mean(t.gather(func(m *clientMeter) []float64 { return m.activeSites })))

	// core.server: the session calls in process; on the wire, the server
	// side of each request (frame received to reply sent, codec included).
	allocUs := t.gather(func(m *clientMeter) []float64 { return m.allocUs })
	uploadUs := t.gather(func(m *clientMeter) []float64 { return m.uploadUs })
	srvAlloc, srvUpload := allocUs, uploadUs
	if w.wire {
		srvAlloc = t.gather(func(m *clientMeter) []float64 { return m.srvAllocUs })
		srvUpload = t.gather(func(m *clientMeter) []float64 { return m.srvUploadUs })
	}
	nAllocs, nUploads := float64(len(allocUs)), float64(len(uploadUs))
	for _, q := range []struct {
		name string
		v    []float64
		p    float64
	}{
		{"core.server.allocate_us_p50", srvAlloc, 0.5},
		{"core.server.allocate_us_p90", srvAlloc, 0.9},
		{"core.server.upload_us_p50", srvUpload, 0.5},
	} {
		v, err := pct(append([]float64(nil), q.v...), q.p)
		if err != nil {
			return err
		}
		rep.add(q.name, "us", v)
	}
	rep.add("core.server.delta_cells_per_allocate", "count", ratio(float64(t.deltaCells), float64(t.allocs)))
	rep.add("core.server.evictions_per_allocate", "count", ratio(float64(t.evicts), float64(t.allocs)))
	rep.add("core.server.merges_per_upload", "count", ratio(float64(t.merges), nUploads))

	// overload, read at every barrier
	rep.add("overload.queue_depth_max", "count", float64(t.queueDepthMax))
	rep.add("overload.queue_wait_us", "us", median(t.queueWaitUs))

	// protocol and transport: the client side of the wire
	var rpcAlloc, rpcUpload float64
	if w.wire {
		if rpcAlloc, err = pct(allocUs, 0.5); err != nil {
			return err
		}
		if rpcUpload, err = pct(uploadUs, 0.5); err != nil {
			return err
		}
	} else {
		allocBytes, uploadBytes = 0, 0
	}
	rep.add("protocol.allocate_rpc_us_p50", "us", rpcAlloc)
	rep.add("protocol.upload_rpc_us_p50", "us", rpcUpload)
	rep.add("protocol.bytes_per_allocate", "B", ratio(float64(allocBytes), nAllocs))
	rep.add("protocol.bytes_per_upload", "B", ratio(float64(uploadBytes), nUploads))
	rep.add("transport.frames_per_client_round", "count", ratio(float64(wireFrames), float64(clientRounds)))

	// federation
	nodeRounds, aeRounds := float64(t.nodeRounds), float64(t.aeRounds)
	syncP50, err := pct(t.syncMs, 0.5)
	if err != nil {
		return err
	}
	rep.add("federation.sync_ms_p50", "ms", syncP50)
	rep.add("federation.collect_ms", "ms", median(t.collectMs))
	rep.add("federation.apply_ms", "ms", median(t.applyMs))
	rep.add("federation.bytes_per_node_round", "B", ratio(float64(t.fedBytes), nodeRounds))
	rep.add("federation.cells_per_node_round", "count", ratio(float64(t.fedCells), nodeRounds))
	rep.add("federation.antientropy_us", "us", median(t.aeUs))
	rep.add("federation.digest_bytes_per_round", "B", ratio(float64(t.digestBytes), aeRounds))
	rep.add("federation.repaired_cells_per_round", "count", ratio(float64(t.repaired), aeRounds))
	rep.add("federation.diverged_vector_cells", "count", mean(t.diverged))

	// failures per phase
	attempted, failed := t.ops(rep)
	rep.add("failed_frac", "ratio", ratio(float64(failed), float64(attempted)))

	// tracing overhead: traced and untraced rounds alternate in this run
	traced := ratio(float64(t.tracedF), t.tracedNs/1e9)
	plain := ratio(float64(t.plainF), t.plainNs/1e9)
	rep.add("trace.frames_per_s_traced", "frames/s", traced)
	rep.add("trace.frames_per_s_untraced", "frames/s", plain)
	rep.add("trace.overhead_pct", "%", 100*ratio(plain-traced, plain))
	rep.add("trace.spans", "count", float64(len(spans)))
	rep.add("trace.spans_dropped", "count", float64(tr.dropped))
	return nil
}
