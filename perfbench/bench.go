package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/federation"
	"coca/internal/model"
	"coca/internal/protocol"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/transport"
)

// bench is one assembled deployment of a workload: the server(s), the
// clients on engine runners, and the meters that time them.
type bench struct {
	w     *workload
	space *semantics.Space
	tr    *tracer
	ph    phase

	servers []*core.Server
	clients []*core.Client
	meters  []*clientMeter
	// runners[g] drives the clients groups[g]: one runner in process, one
	// per federation node on the wire workload.
	runners []*engine.Runner
	groups  [][]int

	// init is the shared-dataset build every server of the deployment
	// starts from.
	init *core.ServerInit

	// Wire workload only.
	nodes  []*federation.Node
	topo   *federation.Topology
	conns  []*protocol.SessionClient
	cancel context.CancelFunc
	serve  sync.WaitGroup

	rs *tally
}

// setup builds a workload's deployment: the semantic space, the server(s)
// and the client sessions. With init nil it also builds the servers'
// shared-dataset construction (the initial table and layer profile);
// otherwise the servers start from init, which core.NewServerFrom makes
// bitwise identical to a fresh build.
func setup(w *workload, seed uint64, init *core.ServerInit, tr *tracer, rs *tally) (*bench, error) {
	space := semantics.NewSpace(dataset.UCF101().Subset(w.classes), model.ResNet101())
	if init == nil {
		init = core.BuildServerInit(space, w.serverConfig())
	}
	b := &bench{w: w, space: space, tr: tr, rs: rs, init: init}
	b.meters = make([]*clientMeter, w.clients)
	for k := range b.meters {
		b.meters[k] = &clientMeter{
			k: k, classes: w.classes, frames: w.frames, ph: &b.ph, tr: tr,
			cur: noSpan, numLayers: space.Arch.NumLayers, replayLimit: w.replay,
		}
	}
	part, err := stream.NewPartition(w.streamConfig(space, seed))
	if err != nil {
		return nil, err
	}
	if w.wire {
		err = b.setupWire()
	} else {
		srv := core.NewServerFrom(space, w.serverConfig(), init)
		b.servers = []*core.Server{srv}
		b.groups = [][]int{make([]int, w.clients)}
		for k := range b.groups[0] {
			b.groups[0][k] = k
		}
		err = b.openClients(func(int) core.Coordinator { return srv })
	}
	if err != nil {
		b.close()
		return nil, err
	}
	for _, group := range b.groups {
		engines := make([]engine.Engine, len(group))
		gens := make([]*stream.Generator, len(group))
		for i, k := range group {
			engines[i] = &timedClient{c: b.clients[k], m: b.meters[k]}
			gens[i] = part.Client(k)
		}
		r, err := engine.NewRunner(engines, gens, engine.RunConfig{
			Rounds: 1, FramesPerRound: w.frames, Concurrent: true, BatchSize: w.batch,
			// The runner's own accumulators would grow with the run
			// length; the meters record what the benchmark reports.
			SkipRounds: math.MaxInt,
		})
		if err != nil {
			b.close()
			return nil, err
		}
		b.runners = append(b.runners, r)
	}
	return b, nil
}

// openClients opens every client's session through coordFor(k), wrapped so
// that the client's coordination calls are timed.
func (b *bench) openClients(coordFor func(k int) core.Coordinator) error {
	for k := 0; k < b.w.clients; k++ {
		ccfg := b.w.clientConfig()
		ccfg.ID = k
		c, err := core.NewClient(context.Background(), b.space,
			&tracedCoord{inner: coordFor(k), meters: b.meters}, ccfg)
		if err != nil {
			return err
		}
		b.clients = append(b.clients, c)
		b.meters[k].cfg = c.Config()
	}
	return nil
}

// setupWire builds two federation nodes over one shared-dataset build,
// serves each over its own TCP listener, and dials one client per node.
func (b *bench) setupWire() error {
	w := b.w
	cfg := w.serverConfig()
	topo, err := federation.NewTopology(federation.Mesh, w.clients)
	if err != nil {
		return err
	}
	b.topo = topo
	assignment, err := federation.Assign(w.clients, w.clients, federation.AssignBlock)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	coords := make([]core.Coordinator, w.clients)
	for i := 0; i < w.clients; i++ {
		srv := core.NewServerFrom(b.space, cfg, b.init)
		node := federation.NewNode(srv, federation.NodeConfig{ID: i, Relay: topo.Forwarding()})
		b.servers = append(b.servers, srv)
		b.nodes = append(b.nodes, node)
		b.groups = append(b.groups, assignment[i])
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		accepted := make(chan *serverConn, 1)
		b.serve.Add(1)
		go func() {
			defer b.serve.Done()
			conn, err := ln.Accept()
			_ = ln.Close() // one client per node
			if err != nil {
				accepted <- nil
				return
			}
			sc := &serverConn{inner: conn, tr: b.tr}
			accepted <- sc
			_ = protocol.ServeConn(ctx, sc, node)
		}()
		conn, err := transport.DialContext(ctx, ln.Addr())
		if err != nil {
			_ = ln.Close()
			<-accepted
			return err
		}
		sc := <-accepted
		if sc == nil {
			_ = conn.Close()
			return fmt.Errorf("node %d accepted no connection", i)
		}
		for _, k := range assignment[i] {
			cc := &countingConn{inner: conn}
			b.meters[k].wire, b.meters[k].server = cc, sc
			client := protocol.NewSessionClient(cc, w.classes, b.space.Arch.NumLayers)
			b.conns = append(b.conns, client)
			coords[k] = client
		}
	}
	return b.openClients(func(k int) core.Coordinator { return coords[k] })
}

// close releases the deployment and waits for every goroutine it started.
// The meters outlive it, detached from the deployment.
func (b *bench) close() {
	for _, m := range b.meters {
		m.ph, m.wire, m.server = nil, nil, nil
	}
	for _, r := range b.runners {
		r.Close()
	}
	for _, c := range b.clients {
		_ = c.Close()
	}
	for _, c := range b.conns {
		_ = c.Close()
	}
	if b.cancel != nil {
		b.cancel()
	}
	b.serve.Wait()
}

// runRound runs one closed-loop round: every client begins its round,
// infers its frames and uploads at the barrier; on the wire workload the
// nodes then sync and run one anti-entropy pull.
func (b *bench) runRound(r int, ph phase) error {
	rs := b.rs
	ph.round = rs.round
	rs.round++
	b.ph = ph
	b.tr.setOn(ph.traced)
	t0 := time.Now()
	start := b.tr.now()
	rid := b.tr.begin("engine.round", noSpan, reqID{Round: int32(ph.round), Client: -1, Frame: -1})
	b.ph.span = rid
	errs := make([]error, len(b.runners))
	if len(b.runners) == 1 {
		errs[0] = b.runners[0].RunRound(r)
	} else {
		var wg sync.WaitGroup
		for g, runner := range b.runners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = runner.RunRound(r)
			}()
		}
		wg.Wait()
	}
	b.tr.end(rid)
	roundWall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ph.measured {
		rs.roundMs = append(rs.roundMs, float64(roundWall)/1e6)
		b.barrier(start, roundWall)
		for _, srv := range b.servers {
			snap := srv.LoadSnapshot()
			rs.queueDepthMax = max(rs.queueDepthMax, snap.Depth)
			rs.queueWaitUs = append(rs.queueWaitUs, us(snap.QueueWait))
		}
	}
	if b.w.wire {
		if err := b.federate(r); err != nil {
			return err
		}
	}
	if ph.measured {
		rs.nodeRounds += len(b.nodes)
		frames := b.w.clients * b.w.frames
		if ph.traced {
			rs.tracedNs += float64(time.Since(t0))
			rs.tracedF += frames
		} else {
			rs.plainNs += float64(time.Since(t0))
			rs.plainF += frames
		}
	}
	return nil
}

// barrier charges each engine worker the time it sat idle between
// finishing its client shard and the end of the round's slowest shard.
// Worker w of a runner owns the clients at group positions i ≡ w mod W.
func (b *bench) barrier(start int64, wall time.Duration) {
	var finish []int64
	for g, group := range b.groups {
		workers := b.runners[g].Workers()
		for w := 0; w < workers; w++ {
			done := start
			for i := w; i < len(group); i += workers {
				done = max(done, b.meters[group[i]].lastEnd)
			}
			finish = append(finish, done)
		}
	}
	b.rs.workers = len(finish)
	end := start
	for _, f := range finish {
		end = max(end, f)
	}
	for _, f := range finish {
		b.rs.idleNs += float64(end - f)
	}
	b.rs.capacityNs += float64(len(finish)) * float64(wall)
}

// federate runs the round's peer sync (PrepareSync/Collect/Apply) and one
// anti-entropy pull, alternating the initiator by round.
func (b *bench) federate(r int) error {
	rs := b.rs
	req := reqID{Round: int32(b.ph.round), Client: -1, Frame: -1}
	t0 := time.Now()
	sid := b.tr.begin("federation.sync", noSpan, req)
	plan, err := federation.PrepareSync(b.nodes, b.topo)
	var collect, apply time.Duration
	if err == nil {
		cid := b.tr.begin("federation.collect", sid, req)
		c0 := time.Now()
		for i := range b.nodes {
			if err = plan.Collect(i); err != nil {
				break
			}
		}
		collect = time.Since(c0)
		b.tr.end(cid)
	}
	if err == nil {
		aid := b.tr.begin("federation.apply", sid, req)
		a0 := time.Now()
		err = plan.Apply()
		apply = time.Since(a0)
		b.tr.end(aid)
	}
	syncDur := time.Since(t0)
	b.tr.end(sid)
	rs.syncOps.note(err)
	if err != nil {
		return fmt.Errorf("round %d sync: %w", r, err)
	}
	a, p := b.nodes[r%2], b.nodes[1-r%2]
	eid := b.tr.begin("federation.antientropy", noSpan, req)
	e0 := time.Now()
	_, err = federation.AntiEntropyExchange(a, p)
	ae := time.Since(e0)
	b.tr.end(eid)
	rs.pullOps.note(err)
	if err != nil {
		return fmt.Errorf("round %d anti-entropy: %w", r, err)
	}
	if b.ph.measured {
		rs.syncMs = append(rs.syncMs, float64(syncDur)/1e6)
		rs.collectMs = append(rs.collectMs, float64(collect)/1e6)
		rs.applyMs = append(rs.applyMs, float64(apply)/1e6)
		rs.aeUs = append(rs.aeUs, us(ae))
	}
	return nil
}
