package main

import (
	"fmt"

	"coca/internal/core"
	"coca/internal/semantics"
	"coca/internal/stream"
	"coca/internal/xrand"
)

// workload is one named input set of the benchmark. Only Seed varies
// between runs: it roots the clients' frame streams, and nothing else.
type workload struct {
	name, why string

	classes, clients, budget int
	frames, batch            int // frames per round, frames per Infer call
	nonIID                   float64
	sceneMean                float64
	workingSet               int
	churn                    float64
	driftWeight, driftStep   float64

	// wire runs two federation nodes, each serving one client over TCP.
	wire bool

	// A run is split into episodes: fresh deployments on stream seeds
	// derived from --seed, each measured for an equal share of the time,
	// so a run averages over several client populations. In each episode
	// warm rounds run before the measured phase (the first episode's are
	// also the prefix the output checks compare with the program's own
	// drivers), and window is the fixed number of measured rounds the
	// virtual metrics cover, so those stay a function of the seed alone.
	// The traced run keeps the frames of every replayEvery-th traced round,
	// up to replay frames per client, for the per-layer replay.
	episodes, warm, window, replay, replayEvery int
}

var workloads = []*workload{
	{
		name:    "ref-stream",
		why:     "the paper's reference point (headline config): the read path dominates, one allocate per 300 frames, batch 1 bypasses the fused batch path",
		classes: 50, clients: 4, budget: 300, frames: 300, batch: 1,
		nonIID: 1, sceneMean: 25, workingSet: 15, churn: 0.05,
		episodes: 12, warm: 3, window: 10, replay: 150, replayEvery: 4,
	},
	{
		name:    "fleet-batch",
		why:     "large per-site tables put the probe kernel and cache.BatchProbe on the critical path; 8 clients on the worker pool exercise the engine barrier",
		classes: 100, clients: 8, budget: 1000, frames: 320, batch: 32,
		nonIID: 6, sceneMean: 20, workingSet: 8, churn: 0.2, driftWeight: 0.1, driftStep: 0.3,
		episodes: 10, warm: 3, window: 6, replay: 96, replayEvery: 4,
	},
	{
		name:    "coord-churn",
		why:     "short churning rounds over TCP make allocate/ACA, the delta codec, upload merge+publish and federation sync most of the work (the write path)",
		classes: 50, clients: 2, budget: 300, frames: 20, batch: 1,
		nonIID: 6, sceneMean: 20, workingSet: 8, churn: 0.2, driftWeight: 0.1, driftStep: 0.3,
		wire:     true,
		episodes: 60, warm: 10, window: 150, replay: 50, replayEvery: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// theta is the paper's hit threshold Θ for ResNet101 on UCF101.
const theta = 0.012

// serverSeed roots the shared dataset every server is built from. It is
// part of the deployment, not of the input, so it does not follow --seed.
const serverSeed = 1

func (w *workload) clientConfig() core.ClientConfig {
	return core.ClientConfig{
		Theta: theta, Budget: w.budget, RoundFrames: w.frames,
		EnvBiasWeight: 0.05, DriftWeight: w.driftWeight, DriftPerRound: w.driftStep,
	}
}

func (w *workload) serverConfig() core.ServerConfig {
	cfg := core.ServerConfig{Theta: theta, Seed: serverSeed}
	if w.wire {
		cfg.PeerInertia = 4
	}
	return cfg
}

func (w *workload) streamConfig(space *semantics.Space, seed uint64) stream.Config {
	return stream.Config{
		Dataset:         space.DS,
		NumClients:      w.clients,
		ClassWeights:    xrand.LongTailWeights(space.DS.NumClasses, 10),
		NonIIDLevel:     w.nonIID,
		SceneMeanFrames: w.sceneMean,
		WorkingSetSize:  w.workingSet,
		WorkingSetChurn: w.churn,
		Seed:            seed,
	}
}
