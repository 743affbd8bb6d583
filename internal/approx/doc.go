// Package approx implements the paper's main performance-model
// contribution (Sect. III-C): a hierarchical approximation of the detailed
// federation CTMC whose cost is linear in the number of SCs.
//
// For a target SC, the federation is processed one SC at a time. Level i
// is a four-dimensional chain M^i over states (q_i, s_i, o_i, a_i):
//
//	q_i  requests of SC i's own customers queued or in service locally,
//	s_i  VMs of SC i serving SCs 1..i-1,
//	o_i  foreign shared VMs serving SC i,
//	a_i  foreign shared VMs (not SC i's) serving SCs 1..i-1.
//
// The influence of SCs 1..i-1 on M^i enters through interaction
// probability vectors P^A, P^D_loc and P^D_rem: distributions over the
// pair (a_loc, a_rem) of predecessor allocations after one mean
// inter-event period, obtained by transient analysis (uniformization with
// Fox-Glynn truncation) of M^{i-1} started from a conditional initial
// distribution.
//
// Two mechanisms the paper leaves unspecified are reconstructed here and
// documented in DESIGN.md:
//
//   - Source disaggregation: M^{i-1} does not record which SC supplied each
//     shared VM, so its foreign usage F = o+a is split between SC i's pool
//     (size S_i) and the rest hypergeometrically; SC (i-1)'s own lent VMs
//     s_{i-1} always land in a_rem.
//   - Conditioning: the initial distribution pi^X restricts M^{i-1}'s
//     steady state to states whose total shared usage s+o+a equals the
//     usage s_i + a_i observed in the current M^i state (nearest non-empty
//     total as fallback), then renormalizes.
//
// Transient runs are cached per (conditioning group, log-bucketed event
// duration), which keeps the interaction computation far below the cost of
// the state-space explosion it replaces (Fig. 8a). The uniformization
// iterates behind them are stepped once per conditioning group and kept by
// the level they were stepped through, so every consumer of a level —
// above all SolveAll's readouts, which all read the same last level —
// shares them. A level's first iterate request steps all its usable
// groups, four to a block through one interleaved sparse pass
// (sparse.CSR.MulVecTTo4), bit-identical to stepping each group alone.
//
// Generator assembly computes nothing twice within a level build. Each
// event rate (arrivals, l local and o remote departures) is bucketed once;
// the Fox-Glynn weights of a bucket serve every group; the vector clamped
// to a state's legal region is kept per (group, bucket, capAloc, capArem);
// and P^NF is tabulated over (q, a_loc, o). Rows reach the generator
// builder in ascending column order, which lets sparse skip its sort.
// None of this changes a floating-point operation: the generators, and so
// every metric, are bit-identical to computing each value per state.
//
// Each level's queue dimension q is truncated from the level's own rates:
// at the first row where a flux-balance bound on the steady mass of the
// next row (arrivals admitted past the cut against the SC's guaranteed
// local departures) falls below the unit roundoff 2^-53, and never beyond
// a 6σ margin on the admission window. The first row cut off carries less
// steady mass than a double can resolve next to one, and each row above it
// less still (DESIGN.md §16).
//
// The package is driven through a reusable handle: NewSolver(cfg)
// validates the configuration once and owns every arena a solve needs
// (level state, generator builders, solver workspaces, interaction
// scratch); Solve(target, opts...) and SolveAll(opts...) then run in
// recycled storage, so repeat solves on one handle allocate almost
// nothing (DESIGN.md §16). WithShares swaps the share vector per call —
// how the market evaluator serves thousands of vectors from a pool of
// handles. A handle serves one goroutine at a time, but a solve uses idle
// cores on its own: a level's stepping blocks and a SolveAll round's
// readouts are claimed by the caller and up to GOMAXPROCS-1 helpers, each
// in its own scratch, and every metric and counter is bit-identical to
// GOMAXPROCS 1, the serial schedule (DESIGN.md §16). Summary
// distributions are adaptively truncated under
// Config.TruncEps (mass-preserving, default 1e-9, accounted in
// Config.PruneStats); set TruncEps negative to disable.
package approx
