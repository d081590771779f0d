package engine

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/oracle"
)

// TestEquivalenceThroughInterface reruns the PR 5 cross-algorithm
// equivalence suite through the Miner interface: every registered engine,
// dispatched by name with one shared Spec, must return bit-identical
// results (frequent sets, supports, ordering, MinCount) to sequential
// Apriori over seeded databases and fractional thresholds — and the engines
// with an out-of-core path must match again when mining the same data
// from an on-disk segmented store.
func TestEquivalenceThroughInterface(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		segPath := filepath.Join(t.TempDir(), "eq.arseg")
		if err := seg.WriteDatabase(segPath, d, seg.WriterOptions{SegTx: 150}); err != nil {
			t.Fatal(err)
		}
		r, err := seg.Open(segPath)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		for _, sup := range []float64{0.01, 0.025} {
			want, err := apriori.Mine(d, apriori.Options{MinSupport: sup, ShortCircuit: true})
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{
				Mining: apriori.Options{MinSupport: sup, ShortCircuit: true},
				Procs:  3, ChunkSize: 32,
			}
			for _, name := range Names() {
				m, ok := Lookup(name)
				if !ok {
					t.Fatalf("Names() lists %q but Lookup fails", name)
				}
				res, _, err := m.Mine(context.Background(), d, spec)
				if err != nil {
					t.Fatalf("seed %d sup %g %s: %v", seed, sup, name, err)
				}
				oracle.SameResult(t, name, res, want)

				if sm, ok := AsSegmented(m); ok {
					sres, _, err := sm.MineSegmented(context.Background(), r, spec)
					if err != nil {
						t.Fatalf("seed %d sup %g %s segmented: %v", seed, sup, name, err)
					}
					oracle.SameResult(t, name+"/segmented", sres, want)
				}
			}
		}
	}
}

// TestDispatch exercises the single dispatch entry point: by-name lookup,
// in-RAM vs segmented routing, and the error paths the CLI relies on.
func TestDispatch(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Mining: apriori.Options{MinSupport: 0.02, ShortCircuit: true}, Procs: 2}
	want, err := apriori.Mine(d, spec.Mining)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := Dispatch(context.Background(), "vbit", d, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "dispatch/vbit", res, want)
	if st == nil || st.EngineName != "vbit" || st.VBit == nil {
		t.Errorf("vbit stats not normalized: %+v", st)
	}

	if _, _, err := Dispatch(context.Background(), "nope", d, nil, spec); err == nil {
		t.Error("unknown engine should fail")
	}

	segPath := filepath.Join(t.TempDir(), "d.arseg")
	if err := seg.WriteDatabase(segPath, d, seg.WriterOptions{SegTx: 100}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sres, sst, err := Dispatch(context.Background(), "ccpd", nil, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle.SameResult(t, "dispatch/ccpd-seg", sres, want)
	if sst == nil || sst.Pipeline == nil {
		t.Errorf("segmented ccpd run missing pipeline stats: %+v", sst)
	}
	if _, _, err := Dispatch(context.Background(), "eclat", nil, r, spec); err == nil {
		t.Error("eclat has no out-of-core path; segmented dispatch should fail")
	}
}

// TestCapsShape pins the capability matrix — the Caps flag plus the
// narrowing interfaces: callers branch on these, so a silent capability
// regression is an interface break.
func TestCapsShape(t *testing.T) {
	type shape struct {
		caps              Caps
		segmented, resume bool
	}
	wantShapes := map[string]shape{
		"seq":   {},
		"ccpd":  {caps: Caps{Obs: true}, segmented: true, resume: true},
		"pccd":  {caps: Caps{Obs: true}},
		"eclat": {},
		"vbit":  {caps: Caps{Obs: true}, segmented: true},
	}
	names := Names()
	if len(names) != len(wantShapes) {
		t.Fatalf("registered engines %v, want %d of them", names, len(wantShapes))
	}
	for name, want := range wantShapes {
		m, ok := Lookup(name)
		if !ok {
			t.Errorf("engine %q not registered", name)
			continue
		}
		if got := m.Caps(); got != want.caps {
			t.Errorf("%s caps = %+v, want %+v", name, got, want.caps)
		}
		if _, ok := AsResumer(m); ok != want.resume {
			t.Errorf("%s: AsResumer = %v, want %v", name, ok, want.resume)
		}
		if _, ok := AsSegmented(m); ok != want.segmented {
			t.Errorf("%s: AsSegmented = %v, want %v", name, ok, want.segmented)
		}
	}
}
