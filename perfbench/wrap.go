package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/cache"
	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/semantics"
	"coca/internal/transport"
)

// phase says what the current round records. The benchmark writes it on
// its own goroutine before dispatching a round; the engine's channel
// hand-off orders that write before every worker's reads.
type phase struct {
	round    int
	measured bool  // counts towards the timed metrics
	virtual  bool  // inside the fixed virtual-latency window
	prefix   bool  // inside the prefix the output checks compare
	traced   bool  // spans are recorded
	replay   bool  // frames are kept for the per-layer replay
	span     int32 // the round's engine span, parent of the clients' spans
}

// opCount is the sent/succeeded/failed tally of one kind of operation.
type opCount struct{ sent, failed int }

func (o *opCount) note(err error) {
	o.sent++
	if err != nil {
		o.failed++
	}
}

// clientMeter holds everything the benchmark measures about one client.
// Its client's calls are sequential (begin and frames on one engine
// worker, end at the barrier on the runner's goroutine), so it needs no
// lock.
type clientMeter struct {
	k, classes, numLayers int
	frames                int               // FramesPerRound
	cfg                   core.ClientConfig // resolved, for the replay
	ph                    *phase
	tr                    *tracer

	// wire is set on the wire workload: the client's byte-counting
	// connection and the server side of the same connection.
	wire   *countingConn
	server *serverConn

	cur         int32 // open begin/end-round span: the parent of session spans
	roundFrames int
	lastEnd     int64            // tracer clock at the end of the client's last frame call
	one         [1]engine.Result // Infer's batch of one
	oneSmp      [1]dataset.Sample

	// Timed samples of measured rounds, in microseconds. frameUs and
	// stallUs move to the run's slices after every round.
	frameUs, stallUs          []float64
	beginUs, endUs            []float64
	allocUs, uploadUs         []float64 // session calls
	srvAllocUs, srvUploadUs   []float64 // server side of wire calls
	activeSites               []float64
	inferNs                   int64
	inferFrames, clientRounds int
	allocBytes, uploadBytes   int64
	wireFrames                int64

	// Behaviour over the fixed virtual window.
	virtual       []float64
	correct, hits int
	exitSiteSum   float64
	virtualFrames int

	// Output checks and failure accounting.
	prefix             metrics.Accumulator
	frameOps, allocOps opCount
	uploadOps          opCount
	miscounted         int // rounds whose frame count differs from FramesPerRound

	// Frames kept for the per-layer replay.
	replay                    []replayRound
	replayFrames, replayLimit int
}

// replayRound keeps one traced round's frames with the cache and
// environment that served them, for the per-layer replay.
type replayRound struct {
	local   *cache.Local
	env     *semantics.Env
	samples []dataset.Sample
	results []engine.Result
	calls   []int // frames per Infer/InferBatch call, in order
	inferNs int64 // the client's time in those calls
}

// attribute appends the duration of one Infer/InferBatch call once per
// frame it carried: every frame of a batch waits for the whole call.
func attribute(dst []float64, callUs float64, frames int) []float64 {
	for i := 0; i < frames; i++ {
		dst = append(dst, callUs)
	}
	return dst
}

// timedClient drives a core.Client for the engine and times every call.
// It forwards calls unchanged, so the client behaves exactly as it does
// under the program's own drivers.
type timedClient struct {
	c *core.Client
	m *clientMeter
}

func (t *timedClient) BeginRound() error {
	m := t.m
	m.cur = m.tr.begin("core.client.begin_round", m.ph.span, clientRound(m.ph.round, m.k))
	t0 := time.Now()
	err := t.c.BeginRound()
	d := time.Since(t0)
	m.tr.end(m.cur)
	m.cur = noSpan
	m.roundFrames = 0
	m.lastEnd = m.tr.now()
	if m.ph.measured {
		m.beginUs = append(m.beginUs, us(d))
		m.stallUs = append(m.stallUs, us(d))
		m.activeSites = append(m.activeSites, float64(len(t.c.Cache().Sites())))
	}
	if m.ph.replay && m.replayFrames < m.replayLimit {
		env := t.c.Env()
		if env != nil {
			cp := *env
			env = &cp
		}
		m.replay = append(m.replay, replayRound{local: t.c.Cache(), env: env})
	}
	return err
}

func (t *timedClient) Infer(smp dataset.Sample) engine.Result {
	t.m.oneSmp[0] = smp
	return t.InferBatch(t.m.oneSmp[:])[0]
}

func (t *timedClient) InferBatch(smps []dataset.Sample) []engine.Result {
	m := t.m
	id := m.tr.begin("core.client.infer", m.ph.span, reqID{Round: int32(m.ph.round), Client: int32(m.k), Frame: int64(m.frameOps.sent)})
	t0 := time.Now()
	var res []engine.Result
	if len(smps) == 1 {
		m.one[0] = t.c.Infer(smps[0])
		res = m.one[:]
	} else {
		res = t.c.InferBatch(smps)
	}
	d := time.Since(t0)
	m.tr.end(id)
	m.lastEnd = m.tr.now()
	m.observe(smps, res, d)
	return res
}

func (t *timedClient) EndRound() error {
	m := t.m
	if m.roundFrames != m.frames {
		m.miscounted++
	}
	m.cur = m.tr.begin("core.client.end_round", m.ph.span, clientRound(m.ph.round, m.k))
	t0 := time.Now()
	err := t.c.EndRound()
	d := time.Since(t0)
	m.tr.end(m.cur)
	m.cur = noSpan
	if m.ph.measured {
		m.endUs = append(m.endUs, us(d))
		m.stallUs[len(m.stallUs)-1] += us(d)
		m.clientRounds++
	}
	return err
}

// observe records one call's frames: validity, timing and behaviour.
func (m *clientMeter) observe(smps []dataset.Sample, res []engine.Result, d time.Duration) {
	n := len(smps)
	m.roundFrames += n
	for i, r := range res {
		var err error
		if r.Pred < 0 || r.Pred >= m.classes {
			err = fmt.Errorf("client %d frame %d: class %d outside [0,%d)", m.k, m.frameOps.sent, r.Pred, m.classes)
		}
		m.frameOps.note(err)
		if m.ph.prefix {
			m.prefix.Record(metrics.Obs{
				LatencyMs: r.LatencyMs, LookupMs: r.LookupMs,
				Correct: r.Pred == smps[i].Class, Hit: r.Hit, HitLayer: r.HitLayer,
				TrueClass: smps[i].Class, Pred: r.Pred,
			})
		}
		if m.ph.virtual {
			m.virtual = append(m.virtual, r.LatencyMs)
			m.virtualFrames++
			if r.Pred == smps[i].Class {
				m.correct++
			}
			exit := m.numLayers
			if r.Hit {
				m.hits++
				exit = r.HitLayer
			}
			m.exitSiteSum += float64(exit)
		}
	}
	if m.ph.measured {
		m.frameUs = attribute(m.frameUs, us(d), n)
		m.inferNs += int64(d)
		m.inferFrames += n
	}
	if m.ph.replay && len(m.replay) > 0 && m.replayFrames < m.replayLimit {
		rr := &m.replay[len(m.replay)-1]
		rr.samples = append(rr.samples, smps...)
		rr.results = append(rr.results, res...)
		rr.calls = append(rr.calls, n)
		rr.inferNs += int64(d)
		m.replayFrames += n
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedCoord hands clients sessions that time every coordination call.
// It wraps the client's side only: the server still sees its own session
// objects, so session ids and server behaviour are unchanged.
type tracedCoord struct {
	inner  core.Coordinator
	meters []*clientMeter
}

func (c *tracedCoord) Open(ctx context.Context, clientID int) (core.Session, error) {
	s, err := c.inner.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &tracedSession{inner: s, m: c.meters[clientID]}, nil
}

type tracedSession struct {
	inner core.Session
	m     *clientMeter
}

func (s *tracedSession) Info() core.RegisterInfo { return s.inner.Info() }
func (s *tracedSession) Close() error            { return s.inner.Close() }

func (s *tracedSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	var d core.Delta
	err := s.call("allocate", func() error {
		var err error
		d, err = s.inner.Allocate(ctx, status)
		return err
	})
	return d, err
}

func (s *tracedSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	return s.call("upload", func() error { return s.inner.Upload(ctx, upd) })
}

// call times one session call. In process the session is the server's
// own, so the call is the server's work; over the wire it is the RPC, and
// the server's share comes from the server side of the connection.
func (s *tracedSession) call(op string, do func() error) error {
	m := s.m
	req := clientRound(m.ph.round, m.k)
	name := "core.server." + op
	if m.wire != nil {
		name = "protocol." + op + "_rpc"
	}
	id := m.tr.begin(name, m.cur, req)
	var bytes0, frames0 int64
	if m.wire != nil {
		bytes0, frames0 = m.wire.counts()
	}
	t0 := time.Now()
	err := do()
	d := time.Since(t0)
	m.tr.end(id)
	if op == "allocate" {
		m.allocOps.note(err)
	} else {
		m.uploadOps.note(err)
	}
	if !m.ph.measured {
		return err
	}
	if op == "allocate" {
		m.allocUs = append(m.allocUs, us(d))
	} else {
		m.uploadUs = append(m.uploadUs, us(d))
	}
	if m.wire != nil {
		bytes1, frames1 := m.wire.counts()
		m.wireFrames += frames1 - frames0
		if op == "allocate" {
			m.allocBytes += bytes1 - bytes0
		} else {
			m.uploadBytes += bytes1 - bytes0
		}
		sc := m.server.lastCall()
		m.tr.add("core.server."+op, id, req, sc.start, sc.end)
		if op == "allocate" {
			m.srvAllocUs = append(m.srvAllocUs, float64(sc.end-sc.start)/1e3)
		} else {
			m.srvUploadUs = append(m.srvUploadUs, float64(sc.end-sc.start)/1e3)
		}
	}
	return err
}

// countingConn counts the frames and bytes a client's connection carries.
type countingConn struct {
	inner          transport.Conn
	bytes, nframes atomic.Int64
}

func (c *countingConn) Send(frame []byte) error {
	c.bytes.Add(int64(len(frame)))
	c.nframes.Add(1)
	return c.inner.Send(frame)
}

func (c *countingConn) Recv() ([]byte, error) {
	f, err := c.inner.Recv()
	if err == nil {
		c.bytes.Add(int64(len(f)))
		c.nframes.Add(1)
	}
	return f, err
}

func (c *countingConn) Close() error { return c.inner.Close() }

func (c *countingConn) counts() (bytes, frames int64) { return c.bytes.Load(), c.nframes.Load() }

// serverCall is the server-side span of one request: from the moment the
// serving loop received the frame to the moment it sent the reply, so it
// covers decode, the session call and encode.
type serverCall struct {
	typ        byte
	start, end int64
}

// serverConn times the requests a protocol.ServeConn loop serves. It
// wraps the transport, not the session, so the serving code runs as
// deployed.
type serverConn struct {
	inner transport.Conn
	tr    *tracer

	mu   sync.Mutex
	cur  serverCall
	last serverCall
}

func (c *serverConn) Recv() ([]byte, error) {
	f, err := c.inner.Recv()
	if err == nil && len(f) > 1 {
		c.mu.Lock()
		c.cur = serverCall{typ: f[1], start: c.tr.now()}
		c.mu.Unlock()
	}
	return f, err
}

func (c *serverConn) Send(frame []byte) error {
	c.mu.Lock()
	c.cur.end = c.tr.now()
	c.last = c.cur
	c.mu.Unlock()
	return c.inner.Send(frame)
}

func (c *serverConn) Close() error { return c.inner.Close() }

// lastCall returns the most recently answered request. The client reads
// it after its RPC returned, so it is that RPC's server side.
func (c *serverConn) lastCall() serverCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

var (
	_ engine.BatchEngine = (*timedClient)(nil)
	_ engine.RoundHooks  = (*timedClient)(nil)
	_ core.Coordinator   = (*tracedCoord)(nil)
	_ core.Session       = (*tracedSession)(nil)
	_ transport.Conn     = (*countingConn)(nil)
	_ transport.Conn     = (*serverConn)(nil)
)
