package cluster

import (
	"fmt"
	"testing"
)

var testPeers = []string{"http://a:1", "http://b:1", "http://c:1"}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	r1, err := NewRing(testPeers, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{testPeers[2], testPeers[0], testPeers[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := CellKey("alltoall", 8, 1<<uint(i%20), 0)
		key += fmt.Sprint(i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: owner differs between peer orderings (%s vs %s)", key, r1.Owner(key), r2.Owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r, err := NewRing(testPeers, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, p := range testPeers {
		if counts[p] < 300 {
			t.Fatalf("peer %s owns only %d/3000 keys; ring is badly unbalanced: %v", p, counts[p], counts)
		}
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty peer name accepted")
	}
}

// TestCellKeyBinsSizes pins the ownership-key canonicalization: all sizes
// inside one power-of-two bin share a key (and therefore an owner), bin
// edges split, and the skew factor separates keyspaces.
func TestCellKeyBinsSizes(t *testing.T) {
	if CellKey("alltoall", 8, 1025, 0) != CellKey("alltoall", 8, 2048, 0) {
		t.Fatal("sizes within one pow2 bin got different keys")
	}
	if CellKey("alltoall", 8, 1024, 0) == CellKey("alltoall", 8, 1025, 0) {
		t.Fatal("bin edge did not split keys")
	}
	if CellKey("alltoall", 8, 1024, 0) == CellKey("alltoall", 8, 1024, 0.5) {
		t.Fatal("factor did not separate keys")
	}
	if CellKey("alltoall", 8, 1024, 0) == CellKey("allreduce", 8, 1024, 0) {
		t.Fatal("collective did not separate keys")
	}
}
