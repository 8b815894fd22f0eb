package protocol

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"coca/internal/core"
	"coca/internal/dataset"
	"coca/internal/engine"
	"coca/internal/metrics"
	"coca/internal/model"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/transport"
	"coca/internal/vecmath"
)

func testServer(t testing.TB) (*core.Server, *semantics.Space) {
	t.Helper()
	space := semantics.NewSpace(dataset.ESC50().Subset(10), model.VGG16BN())
	srv := core.NewServer(space, core.ServerConfig{
		Theta: 0.035, Seed: 3, ProfileSamples: 150, InitSamplesPerClass: 16,
	})
	return srv, space
}

func TestSessionOverPipe(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(ctx, sConn, srv) }()

	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	client, err := core.NewClient(ctx, space, coord, core.ClientConfig{
		ID: 0, Theta: 0.035, Budget: 40, RoundFrames: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: 1, SceneMeanFrames: 15,
		WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := part.Client(0)
	var acc metrics.Accumulator
	for round := 0; round < 2; round++ {
		if err := client.BeginRound(); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 50; f++ {
			smp := gen.Next()
			res := client.Infer(smp)
			acc.Record(metrics.Obs{LatencyMs: res.LatencyMs, Correct: res.Pred == smp.Class, Hit: res.Hit})
		}
		if err := client.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	s := acc.Summary()
	if s.HitRatio == 0 {
		t.Fatal("no hits over wire-backed coordinator")
	}
	if v := client.View().Version(); v != 2 {
		t.Fatalf("client view at version %d after 2 rounds, want 2", v)
	}
	allocs, _ := srv.Stats()
	if allocs < 2 {
		t.Fatalf("server allocations = %d", allocs)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("server still holds %d sessions after close", n)
	}
	_ = coord.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

func TestSessionOverTCP(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = ServeConn(ctx, conn, srv)
	}()

	conn, err := transport.DialContext(ctx, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewSessionClient(conn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Info()
	if info.NumClasses != 10 || info.NumLayers != 13 {
		t.Fatalf("register info %+v", info)
	}
	delta, err := sess.Allocate(ctx, core.StatusReport{
		Tau: make([]int, 10), Budget: 30, RoundFrames: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full || len(delta.Cells) == 0 {
		t.Fatalf("first allocation should be a full delta with cells, got %+v", delta)
	}
	if err := sess.Upload(ctx, core.UpdateReport{Freq: make([]float64, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	_ = coord.Close()
	wg.Wait()
}

// TestConcurrentSessions drives ≥8 clients through one server over the
// in-memory transport, each on its own connection and goroutine, with
// allocations and uploads interleaving freely — the scenario the sharded
// table and session locking exist for. Run under -race in CI.
func TestConcurrentSessions(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	const clients = 8
	const rounds = 3

	part, err := stream.NewPartition(stream.Config{
		Dataset: space.DS, NumClients: clients, SceneMeanFrames: 15,
		WorkingSetSize: 6, WorkingSetChurn: 0.05, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		cConn, sConn := transport.Pipe()
		go func() { _ = ServeConn(ctx, sConn, srv) }()
		wg.Add(1)
		go func(id int, conn transport.Conn) {
			defer wg.Done()
			coord := NewSessionClient(conn, space.DS.NumClasses, space.Arch.NumLayers)
			defer coord.Close()
			client, err := core.NewClient(ctx, space, coord, core.ClientConfig{
				ID: id, Theta: 0.035, Budget: 40, RoundFrames: 40,
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
				return
			}
			defer client.Close()
			gen := part.Client(id)
			for round := 0; round < rounds; round++ {
				if err := client.BeginRound(); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
					return
				}
				for f := 0; f < 40; f++ {
					client.Infer(gen.Next())
				}
				if err := client.EndRound(); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
					return
				}
			}
		}(id, cConn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	allocs, _ := srv.Stats()
	if allocs < clients*rounds {
		t.Fatalf("server allocations = %d, want >= %d", allocs, clients*rounds)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
}

func TestServerRejectsModelMismatch(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	coord := NewSessionClient(cConn, 99, 99)
	_, err := coord.Open(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "model mismatch") {
		t.Fatalf("mismatch not rejected: %v", err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("mismatched hello leaked %d sessions", n)
	}
	_ = coord.Close()
}

func TestServeConnRepliesErrorOnGarbage(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	if err := cConn.Send([]byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	frame, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeError {
		t.Fatalf("expected error reply, got type %d", m.Type)
	}
	_ = cConn.Close()
}

func TestServerErrorsPropagate(t *testing.T) {
	srv, space := testServer(t)
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(ctx, sConn, srv) }()
	coord := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers)
	sess, err := coord.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bad status: wrong tau length.
	if _, err := sess.Allocate(ctx, core.StatusReport{Tau: make([]int, 2), Budget: 10}); err == nil {
		t.Fatal("server-side validation error not propagated")
	}
	_ = coord.Close()
}

func TestUnknownSessionRejected(t *testing.T) {
	srv, _ := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()
	frame, err := Encode(&Message{
		Type: TypeStatus, ClientID: 0, SessionID: 777,
		Status: &core.StatusReport{Tau: make([]int, 10), Budget: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cConn.Send(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeError || !strings.Contains(m.Error, "unknown session") {
		t.Fatalf("unknown session not rejected: %+v", m)
	}
	_ = cConn.Close()
}

// TestServeConnRejectsV1 checks that a client speaking the retired wire
// version 1 gets an error naming the supported range and opens nothing.
func TestServeConnRejectsV1(t *testing.T) {
	srv, space := testServer(t)
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(context.Background(), sConn, srv) }()

	// A v1 Hello: version, type, client id, then the model shape.
	w := &writer{}
	w.u8(1)
	w.u8(TypeHello)
	w.i32(4)
	w.i32(int32(space.DS.NumClasses))
	w.i32(int32(space.Arch.NumLayers))
	if err := cConn.Send(w.buf); err != nil {
		t.Fatal(err)
	}
	resp, err := cConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d..%d", V2, Version)
	if m.Type != TypeError || !strings.Contains(m.Error, want) {
		t.Fatalf("v1 hello reply %+v, want an error naming versions %s", m, want)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("server holds %d sessions after a v1 hello", n)
	}
	_ = cConn.Close()
}

// stagingRecorder wraps a coordinator and counts the delta cells its
// sessions return, and how many of them carry probe staging.
type stagingRecorder struct {
	core.Coordinator
	cells, staged atomic.Int64
}

func (r *stagingRecorder) Open(ctx context.Context, clientID int) (core.Session, error) {
	sess, err := r.Coordinator.Open(ctx, clientID)
	if err != nil {
		return nil, err
	}
	return &recordedSession{Session: sess, r: r}, nil
}

type recordedSession struct {
	core.Session
	r *stagingRecorder
}

func (s *recordedSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	d, err := s.Session.Allocate(ctx, status)
	for _, c := range d.Cells {
		s.r.cells.Add(1)
		if c.Wide != nil {
			s.r.staged.Add(1)
		}
	}
	return d, err
}

// TestServeConnExtractsUnstaged checks that an allocation served over the
// wire skips server-side probe staging — ServeConn marks its context
// core.ForWire, and the mark reaches the server session through a
// forwarding wrapper — while the client's view still arrives fully and
// exactly staged.
func TestServeConnExtractsUnstaged(t *testing.T) {
	srv, space := testServer(t)
	rec := &stagingRecorder{Coordinator: srv}
	ctx := context.Background()
	cConn, sConn := transport.Pipe()
	go func() { _ = ServeConn(ctx, sConn, rec) }()
	defer cConn.Close()

	sess, err := NewSessionClient(cConn, space.DS.NumClasses, space.Arch.NumLayers).Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	status := core.StatusReport{Tau: make([]int, space.DS.NumClasses), Budget: 40, RoundFrames: 300}
	d, err := sess.Allocate(ctx, status)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.cells.Load(); n == 0 || rec.staged.Load() != 0 {
		t.Fatalf("wire allocation: %d of %d server cells staged, want 0 of > 0", rec.staged.Load(), n)
	}
	view := core.NewAllocView()
	if err := view.Apply(d); err != nil {
		t.Fatal(err)
	}
	for _, l := range view.Layers() {
		if len(l.Wide) != len(l.Entries) || len(l.Norm2) != len(l.Entries) {
			t.Fatalf("site %d: client view not staged", l.Site)
		}
		for i, e := range l.Entries {
			want, n2 := vecmath.WidenRow(e)
			if l.Norm2[i] != n2 {
				t.Fatalf("site %d entry %d: norm %v, want %v", l.Site, i, l.Norm2[i], n2)
			}
			for k := range want {
				if l.Wide[i][k] != want[k] {
					t.Fatalf("site %d entry %d[%d]: mirror %v, want %v", l.Site, i, k, l.Wide[i][k], want[k])
				}
			}
		}
	}

	// The recorder does see staging on an in-process session of the same
	// server, so the wire result above is the mark's doing.
	local, err := rec.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	before := rec.cells.Load()
	if _, err := local.Allocate(ctx, status); err != nil {
		t.Fatal(err)
	}
	if n := rec.cells.Load() - before; n == 0 || rec.staged.Load() != n {
		t.Fatalf("in-process allocation: %d of %d cells staged, want all", rec.staged.Load(), n)
	}
}

var _ engine.Engine = (*core.Client)(nil)
