package repro

import (
	"fmt"
	"io"

	"repro/internal/bcast"
	"repro/internal/bitvec"
	"repro/internal/cliquefind"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/newman"
	"repro/internal/rng"
)

// Re-exported core types: the library's public API surface. The aliased
// types are fully documented at their definitions.
type (
	// Protocol is a Broadcast Congested Clique protocol.
	Protocol = bcast.Protocol
	// Node is one processor's logic.
	Node = bcast.Node
	// Transcript is the shared broadcast history.
	Transcript = bcast.Transcript
	// Result is a finished protocol execution.
	Result = bcast.Result
	// Vector is a packed GF(2) bit vector.
	Vector = bitvec.Vector
	// Digraph is a directed graph given to the planted-clique protocols.
	Digraph = graph.Digraph
	// ToyPRG is the single-extra-bit generator of Sections 5-6.
	ToyPRG = core.ToyPRG
	// FullPRG is the Theorem 1.3 generator.
	FullPRG = core.FullPRG
	// ExperimentConfig controls the reproduction harness.
	ExperimentConfig = experiments.Config
)

// RunRounds executes a protocol in the simultaneous-round model.
func RunRounds(p Protocol, inputs []Vector, seed uint64) (*Result, error) {
	return bcast.RunRounds(p, inputs, seed)
}

// RunConcurrent executes a protocol with one goroutine per processor.
func RunConcurrent(p Protocol, inputs []Vector, seed uint64) (*Result, error) {
	return bcast.RunConcurrent(p, inputs, seed)
}

// GeneratePseudorandom runs the Theorem 1.3 construction protocol on n
// processors and returns each processor's m-bit pseudorandom string along
// with the number of BCAST(1) rounds spent.
func GeneratePseudorandom(n, k, m int, seed uint64) (outputs []Vector, rounds int, err error) {
	gen := FullPRG{K: k, M: m}
	if err := gen.Validate(); err != nil {
		return nil, 0, err
	}
	proto := &core.ConstructionProtocol{N: n, Gen: gen}
	r := rng.New(seed)
	res, err := bcast.RunRounds(proto, proto.Inputs(r), r.Uint64())
	if err != nil {
		return nil, 0, err
	}
	return res.Outputs(), proto.Rounds(), nil
}

// BreakPseudorandom runs the Theorem 8.1 rank attack on per-processor
// strings, returning true when they are consistent with a seed-k PRG.
func BreakPseudorandom(outputs []Vector, k int, seed uint64) (bool, error) {
	if len(outputs) == 0 {
		return false, fmt.Errorf("repro: no outputs to attack")
	}
	attack := &core.RankAttack{N: len(outputs), K: k}
	return core.RunAttack(attack, outputs, seed)
}

// NewGraph returns an empty directed graph on n vertices, for callers
// building inputs by hand.
func NewGraph(n int) *Digraph { return graph.New(n) }

// SamplePlantedGraph draws from A_k: a random directed graph with a
// planted k-clique. It returns the graph and the planted set.
func SamplePlantedGraph(n, k int, seed uint64) (*Digraph, []int, error) {
	return graph.SamplePlanted(n, k, rng.New(seed))
}

// FindPlantedClique runs the Appendix B protocol on a graph and returns
// the recovered clique (ok is false when the protocol declined to answer).
func FindPlantedClique(g *Digraph, k int, seed uint64) (clique []int, ok bool, err error) {
	p, err := cliquefind.NewSampleAndSolve(g.N(), k)
	if err != nil {
		return nil, false, err
	}
	return cliquefind.RunOnGraph(p, g, seed)
}

// CheckEquality runs the public-coin equality protocol (the Appendix A
// running example) over the inputs with `rounds` fingerprint rounds and
// error probability 2^{−rounds}.
func CheckEquality(inputs []Vector, rounds int, seed uint64) (bool, error) {
	if len(inputs) == 0 {
		return false, fmt.Errorf("repro: no inputs")
	}
	p := &newman.EqualityProtocol{N: len(inputs), M: inputs[0].Len(), K: rounds}
	r := rng.New(seed)
	res, err := newman.RunWithFreshCoins(p, inputs, r, r.Uint64())
	if err != nil {
		return false, err
	}
	return newman.EqualityVerdict(res.Transcript), nil
}

// FindCliqueByDegree recovers a planted clique with the two-wide-round
// degree-ranking protocol, which works once k ≳ √(n·log n) (Section 1.2's
// remark). For smaller k use FindPlantedClique (Appendix B).
func FindCliqueByDegree(g *Digraph, k int, seed uint64) (clique []int, ok bool, err error) {
	p, err := cliquefind.NewDegreeRecover(g.N(), k)
	if err != nil {
		return nil, false, err
	}
	return cliquefind.RunDegreeRecover(p, g, seed)
}

// CheckConnectivity decides connectivity of a symmetric graph with the
// label-propagation protocol over the given number of BCAST(log n)
// rounds (use at least diameter+1 rounds; n always suffices).
func CheckConnectivity(g *Digraph, rounds int, seed uint64) (bool, error) {
	return frontier.RunConnectivity(g, rounds, seed)
}

// RunAllExperiments executes the full reproduction harness (E1..E18) and
// renders each table to w.
func RunAllExperiments(w io.Writer, cfg ExperimentConfig) error {
	for _, e := range experiments.All() {
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		if err := table.Render(w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return nil
}
