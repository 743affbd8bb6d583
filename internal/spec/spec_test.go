package spec

import (
	"math"
	"strings"
	"testing"

	"scshare/internal/approx"
	"scshare/internal/market"
)

func TestParseAlpha(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		bad  bool
	}{
		{in: "", want: market.AlphaUtilitarian},
		{in: "utilitarian", want: market.AlphaUtilitarian},
		{in: "proportional", want: market.AlphaProportional},
		{in: "maxmin", want: market.AlphaMaxMin},
		{in: "max-min", want: market.AlphaMaxMin},
		{in: "MaxMin", want: market.AlphaMaxMin},
		{in: "  Proportional\t", want: market.AlphaProportional},
		{in: " maxmin ", want: market.AlphaMaxMin},
		{in: "0", want: 0},
		{in: "2", want: 2},
		{in: "0.5", want: 0.5},
		{in: " 2", want: 2},
		{in: "2 ", want: 2},
		{in: "\t1.5\n", want: 1.5},
		{in: "inf", want: math.Inf(1)},
		{in: "+Inf", want: math.Inf(1)},
		{in: "-1", bad: true},
		{in: "-inf", bad: true},
		{in: "NaN", bad: true},
		{in: "nan", bad: true},
		{in: "fair", bad: true},
		{in: "2x", bad: true},
		{in: "1 2", bad: true},
	} {
		got, err := ParseAlpha(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseAlpha(%q) = %v, want an error", tc.in, got)
			} else if !strings.Contains(err.Error(), "bad alpha") {
				t.Errorf("ParseAlpha(%q) error %q, want a bad-alpha error", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAlpha(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseAlpha(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseAlphas(t *testing.T) {
	vals, names, err := ParseAlphas(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin}
	wantNames := []string{"utilitarian", "proportional", "maxmin"}
	if len(vals) != len(wantVals) || len(names) != len(wantNames) {
		t.Fatalf("default regimes %v %v, want %v %v", vals, names, wantVals, wantNames)
	}
	for i := range wantVals {
		if vals[i] != wantVals[i] || names[i] != wantNames[i] {
			t.Errorf("default regime %d = %v %q, want %v %q", i, vals[i], names[i], wantVals[i], wantNames[i])
		}
	}

	in := []string{"maxmin", " 2 ", "Utilitarian"}
	vals, names, err = ParseAlphas(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{market.AlphaMaxMin, 2, market.AlphaUtilitarian} {
		if vals[i] != want || names[i] != in[i] {
			t.Errorf("alpha %d = %v %q, want %v %q", i, vals[i], names[i], want, in[i])
		}
	}

	if _, _, err := ParseAlphas([]string{"proportional", "NaN"}); err == nil {
		t.Error("ParseAlphas accepted a NaN entry")
	}
}

// validSpec is a two-SC spec that passes Normalize.
func validSpec() Federation {
	return Federation{SCs: []SC{
		{VMs: 10, ArrivalRate: 7},
		{Name: "east", VMs: 8, ArrivalRate: 5, ServiceRate: 2, SLA: 0.5, PublicPrice: 3},
	}}
}

func TestNormalizeDefaults(t *testing.T) {
	sp := validSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if sp.Model != "approx" {
		t.Errorf("model %q, want the default approx", sp.Model)
	}
	want := []SC{
		{Name: "sc0", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		{Name: "east", VMs: 8, ArrivalRate: 5, ServiceRate: 2, SLA: 0.5, PublicPrice: 3},
	}
	for i := range want {
		if sp.SCs[i] != want[i] {
			t.Errorf("SC %d normalized to %+v, want %+v", i, sp.SCs[i], want[i])
		}
	}
}

func TestNormalizeRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Federation)
		want   string
	}{
		{"no SCs", func(sp *Federation) { sp.SCs = nil }, "at least one SC"},
		{"NaN arrival rate", func(sp *Federation) { sp.SCs[0].ArrivalRate = nan }, "arrivalRate"},
		{"infinite arrival rate", func(sp *Federation) { sp.SCs[1].ArrivalRate = inf }, "arrivalRate"},
		// A -Inf rate is <= 0, so it would be defaulted away if the
		// finiteness check did not run first.
		{"-Inf service rate", func(sp *Federation) { sp.SCs[0].ServiceRate = -inf }, "serviceRate"},
		{"NaN service rate", func(sp *Federation) { sp.SCs[0].ServiceRate = nan }, "serviceRate"},
		{"-Inf SLA", func(sp *Federation) { sp.SCs[1].SLA = -inf }, "sla"},
		{"NaN SLA", func(sp *Federation) { sp.SCs[1].SLA = nan }, "sla"},
		{"-Inf public price", func(sp *Federation) { sp.SCs[0].PublicPrice = -inf }, "publicPrice"},
		{"infinite public price", func(sp *Federation) { sp.SCs[0].PublicPrice = inf }, "publicPrice"},
		{"negative gamma", func(sp *Federation) { sp.Gamma = -0.1 }, "gamma"},
		{"gamma above 1", func(sp *Federation) { sp.Gamma = 1.5 }, "gamma"},
		{"NaN gamma", func(sp *Federation) { sp.Gamma = nan }, "gamma"},
		{"infinite gamma", func(sp *Federation) { sp.Gamma = inf }, "gamma"},
		{"infinite sim horizon", func(sp *Federation) { sp.SimHorizon = inf }, "simHorizon"},
		{"NaN prune", func(sp *Federation) { sp.Approx = &Approx{Prune: nan} }, "approx.prune"},
		{"infinite truncEps", func(sp *Federation) { sp.Approx = &Approx{TruncEps: -inf} }, "approx.truncEps"},
		{"unknown model", func(sp *Federation) { sp.Model = "markov" }, "unknown model"},
		{"no VMs", func(sp *Federation) { sp.SCs[1].VMs = 0 }, "SC 1"},
	} {
		sp := validSpec()
		tc.mutate(&sp)
		err := sp.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, sp)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
	for _, g := range []float64{0, 0.5, 1} {
		sp := validSpec()
		sp.Gamma = g
		if err := sp.Normalize(); err != nil {
			t.Errorf("gamma %v: %v", g, err)
		}
	}
}

func TestKey(t *testing.T) {
	key := func(sp Federation) string {
		t.Helper()
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		k, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a := validSpec()
	a.MaxShare = 3
	b := validSpec()
	b.MaxShare = 3
	if ka, kb := key(a), key(b); ka != kb {
		t.Errorf("equal specs have different keys:\n%s\n%s", ka, kb)
	}
	// Defaults are applied before keying, so spelling a default out
	// changes nothing.
	c := validSpec()
	c.MaxShare = 3
	c.Model = "approx"
	c.SCs[0].Name, c.SCs[0].ServiceRate = "sc0", 1
	if ka, kc := key(a), key(c); ka != kc {
		t.Errorf("a spec with its defaults spelled out keys differently:\n%s\n%s", ka, kc)
	}
	d := validSpec()
	d.MaxShare = 4
	if ka, kd := key(a), key(d); ka == kd {
		t.Errorf("specs with MaxShare 3 and 4 share the key %s", ka)
	}
}

// TestEquivalentSpecsShareKey pins the framework-cache key to the
// configuration it builds: every variant below configures the same game
// and model as the bare spec, so each must normalize to the bare spec's
// key; a negative count is rejected with an error naming its field.
func TestEquivalentSpecsShareKey(t *testing.T) {
	base := func() Federation {
		return Federation{SCs: []SC{{VMs: 10, ArrivalRate: 5.8}, {VMs: 10, ArrivalRate: 8.4}}}
	}
	want := base()
	if err := want.Normalize(); err != nil {
		t.Fatal(err)
	}
	wantKey, err := want.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Federation)
		bad  string // the field a rejection must name; "" = equivalent
	}{
		{name: "tabu at its default", edit: func(sp *Federation) { sp.Tabu = market.DefaultTabuDistance }},
		{name: "maxRounds at its default", edit: func(sp *Federation) { sp.MaxRounds = market.DefaultMaxRounds }},
		{name: "maxShare equal to every SC's VMs", edit: func(sp *Federation) { sp.MaxShare = 10 }},
		{name: "maxShare above every SC's VMs", edit: func(sp *Federation) { sp.MaxShare = 25 }},
		{name: "empty approx block", edit: func(sp *Federation) { sp.Approx = &Approx{} }},
		{name: "approx passes at its default", edit: func(sp *Federation) { sp.Approx = &Approx{Passes: approx.DefaultPasses} }},
		{name: "approx prune at its default", edit: func(sp *Federation) { sp.Approx = &Approx{Prune: approx.DefaultPrune} }},
		{name: "approx truncEps at its default", edit: func(sp *Federation) { sp.Approx = &Approx{TruncEps: approx.DefaultTruncEps} }},
		{name: "negative approx prune", edit: func(sp *Federation) { sp.Approx = &Approx{Prune: -1} }},
		{name: "every default at once", edit: func(sp *Federation) {
			sp.Tabu, sp.MaxRounds, sp.MaxShare = market.DefaultTabuDistance, market.DefaultMaxRounds, 10
			sp.Approx = &Approx{Passes: approx.DefaultPasses, Prune: approx.DefaultPrune, TruncEps: approx.DefaultTruncEps}
		}},
		{name: "negative tabu", edit: func(sp *Federation) { sp.Tabu = -1 }, bad: "tabu"},
		{name: "negative maxRounds", edit: func(sp *Federation) { sp.MaxRounds = -2 }, bad: "maxRounds"},
		{name: "negative maxShare", edit: func(sp *Federation) { sp.MaxShare = -3 }, bad: "maxShare"},
		{name: "negative approx passes", edit: func(sp *Federation) { sp.Approx = &Approx{Passes: -1} }, bad: "approx.passes"},
	} {
		sp := base()
		tc.edit(&sp)
		err := sp.Normalize()
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), "bad "+tc.bad+" ") {
				t.Errorf("%s: Normalize error %v, want one naming %s", tc.name, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if key, err := sp.Key(); err != nil || key != wantKey {
			t.Errorf("%s: key %s (%v), want %s", tc.name, key, err, wantKey)
		}
	}
	// The negative settings that each mean one thing share one key, apart
	// from the bare spec's.
	for _, pair := range [][2]Approx{
		{{TruncEps: -1}, {TruncEps: -2}},
		{{PoolCap: -1}, {PoolCap: -5}},
	} {
		var keys [2]string
		for i := range pair {
			sp := base()
			sp.Approx = &pair[i]
			if err := sp.Normalize(); err != nil {
				t.Fatal(err)
			}
			keys[i], _ = sp.Key()
		}
		if keys[0] != keys[1] || keys[0] == wantKey {
			t.Errorf("%+v and %+v: keys %s and %s, want one key apart from %s", pair[0], pair[1], keys[0], keys[1], wantKey)
		}
	}
	// Settings that do change the configuration keep their own key.
	for _, edit := range []func(*Federation){
		func(sp *Federation) { sp.Tabu = 3 },
		func(sp *Federation) { sp.MaxRounds = 10 },
		func(sp *Federation) { sp.MaxShare = 9 },
		func(sp *Federation) { sp.Approx = &Approx{Passes: 1} },
		func(sp *Federation) { sp.Approx = &Approx{PoolCap: 4} },
	} {
		sp := base()
		edit(&sp)
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if key, _ := sp.Key(); key == wantKey {
			t.Errorf("%s shares the bare spec's key", key)
		}
	}
	// Folding copies the approx block instead of writing through the
	// caller's pointer.
	shared := &Approx{Passes: approx.DefaultPasses, PoolCap: 4}
	sp := base()
	sp.Approx = shared
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if shared.Passes != approx.DefaultPasses || sp.Approx.Passes != 0 {
		t.Errorf("caller's block %+v, normalized %+v: want the caller's untouched and the copy folded", *shared, *sp.Approx)
	}
}
