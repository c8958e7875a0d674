package ring

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sim/v1;app=CG;cores=%d", i)
	}
	return out
}

// TestDeterministicAndOrderIndependent: the ring is a pure function of
// (membership set, vnodes, seed) — argument order and repetition are
// irrelevant, so every cluster member and client agrees on placement.
func TestDeterministicAndOrderIndependent(t *testing.T) {
	a := New([]string{"n1", "n2", "n3"}, 64, 42)
	b := New([]string{"n3", "n1", "n2", "n1"}, 64, 42)
	for _, k := range keys(200) {
		if got, want := a.Nodes(k, 2), b.Nodes(k, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("placement of %q differs across build orders: %v vs %v", k, got, want)
		}
	}
	if got := a.Members(); !reflect.DeepEqual(got, []string{"n1", "n2", "n3"}) {
		t.Fatalf("Members() = %v", got)
	}
}

// TestSeedChangesPlacement: a different seed is a different ring.
func TestSeedChangesPlacement(t *testing.T) {
	a := New([]string{"n1", "n2", "n3"}, 64, 1)
	b := New([]string{"n1", "n2", "n3"}, 64, 2)
	moved := 0
	for _, k := range keys(200) {
		if a.Primary(k) != b.Primary(k) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed had no effect on placement")
	}
}

// TestReplicaSetsAreDistinct: Nodes returns distinct members in preference
// order, capped at the membership size.
func TestReplicaSetsAreDistinct(t *testing.T) {
	r := New([]string{"n1", "n2", "n3"}, 64, 7)
	for _, k := range keys(100) {
		ns := r.Nodes(k, 2)
		if len(ns) != 2 || ns[0] == ns[1] {
			t.Fatalf("Nodes(%q, 2) = %v", k, ns)
		}
		all := r.Nodes(k, 0)
		if len(all) != 3 {
			t.Fatalf("Nodes(%q, 0) = %v, want all 3", k, all)
		}
		if all[0] != ns[0] || all[1] != ns[1] {
			t.Fatalf("prefix of full order %v differs from Nodes(...,2) %v", all, ns)
		}
		if !r.Owns(k, ns[0], 2) || !r.Owns(k, ns[1], 2) || r.Owns(k, all[2], 2) {
			t.Fatalf("Owns disagrees with Nodes for %q: %v", k, all)
		}
	}
}

// TestBalance: with 64 vnodes the per-node share of many keys stays within
// a loose bound — consistent hashing, not perfect partitioning.
func TestBalance(t *testing.T) {
	r := New([]string{"n1", "n2", "n3"}, 64, 42)
	counts := map[string]int{}
	const n = 3000
	for _, k := range keys(n) {
		counts[r.Primary(k)]++
	}
	for node, c := range counts {
		if c < n/3/3 || c > n {
			t.Fatalf("node %s owns %d/%d keys — pathological imbalance", node, c, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own keys: %v", len(counts), counts)
	}
}

// TestSuffixKeysSpread: keys that differ only in their last bytes must not
// bunch onto the same owners. For 500 three-member clusters on loopback
// ports, every member owns some of 24 such keys at R=2; an unmixed FNV-1a
// point left one member with none of them in about 8% of clusters.
func TestSuffixKeysSpread(t *testing.T) {
	ks := make([]string, 24)
	for i := range ks {
		ks[i] = fmt.Sprintf("drill/warm-%02d", i)
	}
	for c := 0; c < 500; c++ {
		ms := make([]string, 3)
		for i := range ms {
			ms[i] = fmt.Sprintf("http://127.0.0.1:%d", 32768+(c*3+i)*17)
		}
		r := New(ms, 0, DefaultSeed)
		for _, m := range ms {
			owned := 0
			for _, k := range ks {
				if r.Owns(k, m, 2) {
					owned++
				}
			}
			if owned == 0 {
				t.Fatalf("cluster %v: %s owns none of %d suffix-varying keys", ms, m, len(ks))
			}
		}
	}
}

// TestStabilityUnderMemberLoss: removing one node reassigns only keys it
// owned; every other key keeps its primary.
func TestStabilityUnderMemberLoss(t *testing.T) {
	full := New([]string{"n1", "n2", "n3"}, 64, 42)
	less := New([]string{"n1", "n3"}, 64, 42)
	for _, k := range keys(500) {
		if p := full.Primary(k); p != "n2" {
			if got := less.Primary(k); got != p {
				t.Fatalf("key %q moved from %s to %s though its owner survived", k, p, got)
			}
		} else if got := less.Primary(k); got == "n2" || got == "" {
			t.Fatalf("key %q still mapped to the removed node", k)
		}
	}
}

// TestEmptyAndSingle: degenerate memberships behave.
func TestEmptyAndSingle(t *testing.T) {
	if got := New(nil, 0, 1).Nodes("k", 2); got != nil {
		t.Fatalf("empty ring returned %v", got)
	}
	one := New([]string{"solo"}, 0, 1)
	if got := one.Nodes("k", 5); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("single-node ring returned %v", got)
	}
	if one.Primary("k") != "solo" {
		t.Fatal("single-node primary mismatch")
	}
}
