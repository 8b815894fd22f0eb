package main

import (
	"fmt"
	"math"
	"reflect"

	"coca/internal/core"
	"coca/internal/federation"
	"coca/internal/metrics"
)

// check is one named output check and its outcome.
type check struct {
	name string
	err  error
}

// checkFrames verifies that every frame returned a valid class and that
// the frame counts add up: each client inferred exactly FramesPerRound
// frames in each of the rounds run.
func (b *bench) checkFrames(rounds int) error {
	for _, m := range b.meters {
		if m.frameOps.failed > 0 {
			return fmt.Errorf("client %d: %d of %d frames returned an invalid class", m.k, m.frameOps.failed, m.frameOps.sent)
		}
		if m.miscounted > 0 {
			return fmt.Errorf("client %d: %d rounds did not carry %d frames", m.k, m.miscounted, m.frames)
		}
		if want := rounds * m.frames; m.frameOps.sent != want {
			return fmt.Errorf("client %d: %d frames over %d rounds, want %d", m.k, m.frameOps.sent, rounds, want)
		}
	}
	return nil
}

// prefixAccumulators returns the benchmark's own per-client record of the
// warm-up rounds.
func (b *bench) prefixAccumulators() []*metrics.Accumulator {
	out := make([]*metrics.Accumulator, len(b.meters))
	for k, m := range b.meters {
		out[k] = &m.prefix
	}
	return out
}

// checkPrefix runs the warm-up rounds again through the program's own
// driver — core.Cluster, or federation.Cluster with a sync every round on
// the wire workload — and requires the benchmark's assembly to have
// produced bit-identical per-client and combined results.
func (b *bench) checkPrefix(seed uint64) error {
	want, err := b.clusterPrefix(seed, b.w.batch)
	if err != nil {
		return err
	}
	return samePerClient("benchmark assembly", b.prefixAccumulators(), "program driver", want)
}

// checkBatch runs the prefix through the program's own driver at the
// other batch size — 32 for a batch-1 workload, 1 for a batched one — and
// requires it to equal the benchmark's prefix: a batch of inferences
// equals the same samples run one at a time.
func (b *bench) checkBatch(seed uint64) (string, error) {
	other := 32
	if b.w.batch > 1 {
		other = 1
	}
	name := fmt.Sprintf("batch-%d-equals-batch-%d", b.w.batch, other)
	got, err := b.clusterPrefix(seed, other)
	if err != nil {
		return name, err
	}
	return name, samePerClient(fmt.Sprintf("batch %d", b.w.batch), b.prefixAccumulators(), fmt.Sprintf("batch %d", other), got)
}

// clusterPrefix runs the workload's warm-up rounds through the program's
// own in-process driver and returns per-client results.
func (b *bench) clusterPrefix(seed uint64, batch int) ([]*metrics.Accumulator, error) {
	w := b.w
	if w.wire {
		cl, err := federation.NewCluster(b.space, federation.ClusterConfig{
			NumServers: len(b.nodes), NumClients: w.clients, Topology: federation.Mesh, SyncEvery: 1,
			Client: w.clientConfig(), Server: w.serverConfig(), ServerInit: b.init,
			Stream: w.streamConfig(b.space, seed), Rounds: w.warm, BatchSize: batch,
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, cs := range cl.Clients {
				for _, c := range cs {
					_ = c.Close()
				}
			}
		}()
		perServer, _, err := cl.Run()
		if err != nil {
			return nil, err
		}
		// One client per server, assigned in id order.
		return perServer, nil
	}
	cl, err := core.NewCluster(b.space, core.ClusterConfig{
		NumClients: w.clients, Client: w.clientConfig(), Server: w.serverConfig(),
		Stream: w.streamConfig(b.space, seed), Rounds: w.warm, BatchSize: batch,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range cl.Clients {
			_ = c.Close()
		}
	}()
	perClient, _, err := cl.Run()
	return perClient, err
}

// samePerClient compares two per-client result sets, and their client-order
// merges, summary by summary.
func samePerClient(gotName string, got []*metrics.Accumulator, wantName string, want []*metrics.Accumulator) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d clients, %s %d", gotName, len(got), wantName, len(want))
	}
	var gotAll, wantAll metrics.Accumulator
	for k := range got {
		if err := sameSummary(got[k].Summary(), want[k].Summary()); err != nil {
			return fmt.Errorf("client %d: %s differs from %s: %w", k, gotName, wantName, err)
		}
		gotAll.Merge(got[k])
		wantAll.Merge(want[k])
	}
	if err := sameSummary(gotAll.Summary(), wantAll.Summary()); err != nil {
		return fmt.Errorf("combined: %s differs from %s: %w", gotName, wantName, err)
	}
	return nil
}

func sameSummary(a, b metrics.Summary) error {
	if a.Frames == 0 {
		return fmt.Errorf("no frames recorded")
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%+v vs %+v", a, b)
	}
	return nil
}

// checkConverged runs one quiet sync and one anti-entropy pull after the
// measured phase and requires both nodes to hold the same cells with
// bit-identical evidence ledgers (support and evidence total). Entry
// vectors are not required to match: a push sync folds a peer's cells in
// with recency-weighted merges, so two nodes that merged concurrent
// evidence in different orders keep different vectors over equal ledgers,
// and a pull repairs only cells whose ledger is behind. The cells whose
// vectors differ are counted instead.
func (b *bench) checkConverged() (diverged int, err error) {
	if err := federation.SyncNodes(b.nodes, b.topo); err != nil {
		return 0, fmt.Errorf("quiet sync: %w", err)
	}
	if _, err := federation.AntiEntropyExchange(b.nodes[0], b.nodes[1]); err != nil {
		return 0, fmt.Errorf("pull: %w", err)
	}
	ref := tableCells(b.servers[0])
	for i, srv := range b.servers[1:] {
		got := tableCells(srv)
		if len(got) != len(ref) {
			return 0, fmt.Errorf("node %d holds %d cells, node 0 %d", i+1, len(got), len(ref))
		}
		for j := range ref {
			same, err := sameLedger(ref[j], got[j])
			if err != nil {
				return 0, fmt.Errorf("node %d vs node 0: %w", i+1, err)
			}
			if !same {
				diverged++
			}
		}
	}
	return diverged, nil
}

// tableCell is one global-table cell's content; write versions are local
// to a server and not compared.
type tableCell struct {
	class, layer     int
	vec              []float32
	support, evTotal float64
}

func tableCells(srv *core.Server) []tableCell {
	var out []tableCell
	srv.ForEachCell(func(class, layer int, vec []float32, _ uint64, support, evTotal float64) {
		out = append(out, tableCell{class, layer, append([]float32(nil), vec...), support, evTotal})
	})
	return out
}

// sameLedger fails unless both cells are the same (class, layer) with
// bit-identical support and evidence totals, and reports whether their
// entry vectors are bit-identical too.
func sameLedger(a, b tableCell) (sameVec bool, err error) {
	if a.class != b.class || a.layer != b.layer {
		return false, fmt.Errorf("cell order (%d,%d) vs (%d,%d)", a.class, a.layer, b.class, b.layer)
	}
	if math.Float64bits(a.support) != math.Float64bits(b.support) || math.Float64bits(a.evTotal) != math.Float64bits(b.evTotal) {
		return false, fmt.Errorf("cell (%d,%d) support/evidence %v/%v vs %v/%v", a.class, a.layer, a.support, a.evTotal, b.support, b.evTotal)
	}
	if len(a.vec) != len(b.vec) {
		return false, fmt.Errorf("cell (%d,%d) dim %d vs %d", a.class, a.layer, len(a.vec), len(b.vec))
	}
	for i := range a.vec {
		if math.Float32bits(a.vec[i]) != math.Float32bits(b.vec[i]) {
			return false, nil
		}
	}
	return true, nil
}
