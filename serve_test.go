package coca

import (
	"context"
	"errors"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

func serveOpts() Options {
	return Options{
		Model: "VGG16_BN", Dataset: "ESC-50", Classes: 10,
		NumClients: 3, Rounds: 2, RoundFrames: 50, Budget: 40, Seed: 4,
	}
}

func TestServeAndDialFleet(t *testing.T) {
	ctx := context.Background()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	var wg sync.WaitGroup
	reports := make([]Report, len(clients))
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			reports[i], errs[i] = cl.Run(ctx, 0)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, rep := range reports {
		if rep.Frames != 2*50 {
			t.Fatalf("client %d frames = %d, want 100", i, rep.Frames)
		}
		if rep.AvgLatencyMs <= 0 || rep.AvgLatencyMs >= rep.EdgeOnlyLatencyMs {
			t.Fatalf("client %d latency not reduced: %+v", i, rep)
		}
	}
	for i, cl := range clients {
		if v := cl.ViewVersion(); v != 2 {
			t.Fatalf("client %d view version %d after 2 rounds, want 2", i, v)
		}
		_ = cl.Close()
	}
	allocs, _, sessions := srv.Stats()
	if allocs < 3*2 {
		t.Fatalf("server allocations = %d, want >= 6", allocs)
	}
	if sessions != 0 {
		t.Fatalf("%d sessions still open after client closes", sessions)
	}
}

func TestDialValidatesClientID(t *testing.T) {
	ctx := context.Background()
	srv, err := Serve(ctx, "127.0.0.1:0", serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	if _, err := Dial(ctx, srv.Addr(), 99, serveOpts()); err == nil {
		t.Fatal("out-of-fleet client id accepted")
	}
}

func TestServerShutdownIdempotentAndDraining(t *testing.T) {
	ctx := context.Background()
	srv, clients, err := ServeAndDial(ctx, serveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range clients {
		if _, err := cl.Run(ctx, 1); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	// New connections must be refused after shutdown.
	if _, err := Dial(ctx, srv.Addr(), 0, serveOpts()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServeFederatedPeers runs two public-API servers that name each
// other in Options.Federation.Peers: both fleets drive rounds, and both
// endpoints must end up having pushed and merged peer deltas (cells and
// frequency increments traveling the wire in both directions).
func TestServeFederatedPeers(t *testing.T) {
	ctx := context.Background()
	base := serveOpts()
	base.NumClients = 4
	base.Rounds = 3

	srvs, addrs := servePeerPair(t, ctx, base)
	defer func() {
		for _, srv := range srvs {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(sctx)
			cancel()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, base.NumClients)
	for id := 0; id < base.NumClients; id++ {
		cl, err := Dial(ctx, addrs[id/2], id, base)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			_, errs[id] = cl.Run(ctx, 0)
		}(id, cl)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	// Push what each fleet uploaded to the other server explicitly, instead
	// of waiting for background sync ticks: a push commits only once the
	// peer has merged it, so after a push that reaches the peer either it
	// or an earlier tick has carried cells that way. A peer whose early
	// dials failed while it was still starting may be marked dead, and a
	// dead peer is re-probed only every few sync rounds, so count rounds
	// until one reaches it.
	for i, srv := range srvs {
		for round := 0; ; round++ {
			synced, err := srv.peers.SyncOnce(ctx)
			if err != nil {
				t.Fatalf("server %d sync: %v", i, err)
			}
			if synced > 0 {
				break
			}
			if round == 64 {
				t.Fatalf("server %d: no sync round reached its peer", i)
			}
		}
	}
	if srvs[0].PeerMerges() == 0 || srvs[1].PeerMerges() == 0 ||
		srvs[0].SyncStats().CellsSent == 0 || srvs[1].SyncStats().CellsSent == 0 {
		t.Fatalf("federation did not sync both ways: s0=%+v (merges %d), s1=%+v (merges %d)",
			srvs[0].SyncStats(), srvs[0].PeerMerges(), srvs[1].SyncStats(), srvs[1].PeerMerges())
	}
}

// servePeerPair starts two servers that name each other as federation
// peers. Both ports are reserved up front so each server can name its
// peer before either listens (PeerSet dials lazily and retries). Another
// process can bind a reserved port before Serve does, so a bind failure
// starts over on fresh ports.
func servePeerPair(t *testing.T, ctx context.Context, base Options) ([]*Server, []string) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		addrs := make([]string, 2)
		for i := range addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = l.Addr().String()
			_ = l.Close()
		}
		var srvs []*Server
		var err error
		for i := range addrs {
			o := base
			o.Federation = &FederationOptions{
				Peers: []string{addrs[1-i]}, NodeID: i, SyncInterval: 30 * time.Millisecond,
			}
			var srv *Server
			if srv, err = Serve(ctx, addrs[i], o); err != nil {
				break
			}
			srvs = append(srvs, srv)
		}
		if err == nil {
			return srvs, addrs
		}
		for _, srv := range srvs {
			_ = srv.Shutdown(context.Background())
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 4 {
			t.Fatal(err)
		}
	}
}
