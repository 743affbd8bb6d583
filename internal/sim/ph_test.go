package sim

import (
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/phasetype"
	"scshare/internal/queueing"
	"scshare/internal/workload"
)

// Cross-validation of the phase-type extension: the analytic M/PH/N chain
// and the simulator sampling the same distribution must agree.
func TestPHModelMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := cloud.SC{Name: "ph", VMs: 10, ArrivalRate: 8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	dists := []phasetype.Distribution{
		phasetype.Erlang{K: 3, Rate: 3},                              // SCV 1/3, mean 1
		phasetype.HyperExp2{P: 0.8873, Rate1: 1.7746, Rate2: 0.2254}, // SCV ~4, mean 1
	}
	for _, d := range dists {
		rep, ok := d.(phasetype.Representable)
		if !ok {
			t.Fatalf("%T not representable", d)
		}
		phm, err := queueing.SolvePH(sc, rep.PH())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Federation: cloud.Federation{SCs: []cloud.SC{sc}},
			Shares:     []int{0},
			Horizon:    120000,
			Warmup:     3000,
			Seed:       31,
			Services:   []phasetype.Distribution{d},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, want := phm.Metrics(), res.Metrics[0]
		if math.Abs(got.Utilization-want.Utilization) > 0.015 {
			t.Errorf("%T: utilization model %v vs sim %v", d, got.Utilization, want.Utilization)
		}
		if math.Abs(got.ForwardProb-want.ForwardProb) > 0.02 {
			t.Errorf("%T: forward prob model %v vs sim %v", d, got.ForwardProb, want.ForwardProb)
		}
	}
}

// Workload plumbing: a custom Poisson factory must reproduce the built-in
// arrivals statistically, and validation rejects mismatched lengths.
func TestCustomWorkloadPlumbing(t *testing.T) {
	fed := cloud.Federation{
		SCs: []cloud.SC{{Name: "a", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}},
	}
	pf, err := workload.Poisson(7)
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Run(Config{
		Federation: fed, Shares: []int{0}, Horizon: 40000, Warmup: 1000, Seed: 3,
		Workloads: []workload.Factory{pf},
	})
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := Run(Config{
		Federation: fed, Shares: []int{0}, Horizon: 40000, Warmup: 1000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(custom.Metrics[0].Utilization-builtin.Metrics[0].Utilization) > 0.02 {
		t.Errorf("custom Poisson utilization %v vs builtin %v",
			custom.Metrics[0].Utilization, builtin.Metrics[0].Utilization)
	}
	if _, err := Run(Config{
		Federation: fed, Shares: []int{0}, Horizon: 100,
		Workloads: []workload.Factory{pf, pf},
	}); err == nil {
		t.Error("mismatched workload count accepted")
	}
	if _, err := Run(Config{
		Federation: fed, Shares: []int{0}, Horizon: 100,
		Services: []phasetype.Distribution{nil, nil},
	}); err == nil {
		t.Error("mismatched service count accepted")
	}
}

// Batched arrivals push more load through the same event rate: utilization
// and forwarding must both rise versus the unbatched baseline.
func TestBatchedArrivalsRaiseLoad(t *testing.T) {
	fed := cloud.Federation{
		SCs: []cloud.SC{{Name: "a", VMs: 10, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}},
	}
	pf, err := workload.Poisson(4)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := workload.Batched(pf, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Federation: fed, Shares: []int{0}, Horizon: 30000, Warmup: 500, Seed: 5,
		Workloads: []workload.Factory{pf}})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(Config{Federation: fed, Shares: []int{0}, Horizon: 30000, Warmup: 500, Seed: 5,
		Workloads: []workload.Factory{bf}})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Metrics[0].Utilization <= plain.Metrics[0].Utilization {
		t.Errorf("batching did not raise utilization: %v <= %v",
			batched.Metrics[0].Utilization, plain.Metrics[0].Utilization)
	}
	if batched.Metrics[0].ForwardProb <= plain.Metrics[0].ForwardProb {
		t.Errorf("batching did not raise forwarding: %v <= %v",
			batched.Metrics[0].ForwardProb, plain.Metrics[0].ForwardProb)
	}
}

// The analytic waiting-time audit must match the simulator's measured one
// on the no-sharing system.
func TestAnalyticSLAMatchesSimAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := cloud.SC{Name: "a", VMs: 10, ArrivalRate: 9, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	m, err := queueing.Solve(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Federation: cloud.Federation{SCs: []cloud.SC{sc}},
		Shares:     []int{0},
		Horizon:    150000,
		Warmup:     3000,
		Seed:       41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(m.SLAViolationProb() - res.Waits[0].ViolationProb); d > 0.01 {
		t.Errorf("violation prob: analytic %v vs sim %v", m.SLAViolationProb(), res.Waits[0].ViolationProb)
	}
	if d := math.Abs(m.MeanWait() - res.Waits[0].Mean); d > 0.005 {
		t.Errorf("mean wait: analytic %v vs sim %v", m.MeanWait(), res.Waits[0].Mean)
	}
}

// Preemptive reclaim (the related-work policy the paper argues against)
// must help the lender's own customers but hurt the borrowers: the hot
// SC's SLA violations and forwarding rise because its borrowed VMs can be
// yanked away mid-service.
func TestPreemptiveReclaimHurtsBorrowers(t *testing.T) {
	fed := cloud.Federation{
		SCs: []cloud.SC{
			{Name: "hot", VMs: 10, ArrivalRate: 9.5, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "cold", VMs: 10, ArrivalRate: 6.5, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.4,
	}
	shares := []int{2, 6}
	// Erlang service makes restarts genuinely wasteful (completed phases
	// are lost); with exponential service preemption would only reshuffle
	// priorities thanks to memorylessness.
	erlang := phasetype.Erlang{K: 4, Rate: 4}
	base := Config{Federation: fed, Shares: shares, Horizon: 60000, Warmup: 1000, Seed: 23,
		Services: []phasetype.Distribution{erlang, erlang}}
	nonPreemptive, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pre := base
	pre.PreemptiveReclaim = true
	preemptive, err := Run(pre)
	if err != nil {
		t.Fatal(err)
	}
	// The borrower (hot SC) loses reliability.
	if preemptive.Metrics[0].ForwardProb <= nonPreemptive.Metrics[0].ForwardProb {
		t.Errorf("preemption did not raise the borrower's forwarding: %v <= %v",
			preemptive.Metrics[0].ForwardProb, nonPreemptive.Metrics[0].ForwardProb)
	}
	// Restarted jobs waste service capacity, so the federation as a whole
	// buys more public VMs than under the paper's non-preemptive contract.
	totalPre := preemptive.Metrics[0].PublicRate + preemptive.Metrics[1].PublicRate
	totalNon := nonPreemptive.Metrics[0].PublicRate + nonPreemptive.Metrics[1].PublicRate
	if totalPre <= totalNon {
		t.Errorf("preemption did not raise total public-cloud usage: %v <= %v", totalPre, totalNon)
	}
	// Conservation still holds under preemption.
	lend := preemptive.Metrics[0].LendRate + preemptive.Metrics[1].LendRate
	borrow := preemptive.Metrics[0].BorrowRate + preemptive.Metrics[1].BorrowRate
	if math.Abs(lend-borrow) > 1e-9 {
		t.Errorf("conservation broken under preemption: lend %v borrow %v", lend, borrow)
	}
}

// The analytic MMPP/M/N model must track the simulator driving the same
// modulated arrival process.
func TestMMPPModelMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := cloud.SC{Name: "m", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	rate1, rate2, r12, r21 := 12.0, 2.0, 0.1, 0.1
	m, err := queueing.SolveMMPP(sc, rate1, rate2, r12, r21)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := workload.MMPP2(rate1, rate2, r12, r21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Federation: cloud.Federation{SCs: []cloud.SC{sc}},
		Shares:     []int{0},
		Horizon:    200000,
		Warmup:     5000,
		Seed:       51,
		Workloads:  []workload.Factory{wf},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Metrics(), res.Metrics[0]
	if math.Abs(got.ForwardProb-want.ForwardProb) > 0.02 {
		t.Errorf("forward prob model %v vs sim %v", got.ForwardProb, want.ForwardProb)
	}
	if math.Abs(got.Utilization-want.Utilization) > 0.02 {
		t.Errorf("utilization model %v vs sim %v", got.Utilization, want.Utilization)
	}
}
