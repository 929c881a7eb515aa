package tpch

import (
	"sync"
	"testing"
)

// TestRefDigestConcurrent: callers racing on a fresh dataset all get the
// digest of the reference answer, for every query. Run under -race this also
// checks that the memo is published safely.
func TestRefDigestConcurrent(t *testing.T) {
	d := testData(t)
	queries := append(append([]QueryID(nil), AllQueries...), Q1)
	want := make(map[QueryID]uint64, len(queries))
	for _, q := range queries {
		want[q] = Ref(q, d).Digest()
	}
	const callers = 8
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queries {
				// Each caller starts at a different query so the first calls
				// of every query overlap.
				q := queries[(g+i)%len(queries)]
				got[g] = append(got[g], uint64(q), d.RefDigest(q))
			}
		}()
	}
	wg.Wait()
	for g, pairs := range got {
		for i := 0; i < len(pairs); i += 2 {
			q := QueryID(pairs[i])
			if pairs[i+1] != want[q] {
				t.Fatalf("caller %d: RefDigest(%v) = %x, want %x", g, q, pairs[i+1], want[q])
			}
		}
	}
}
