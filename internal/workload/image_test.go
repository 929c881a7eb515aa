package workload

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"dssmem/internal/db/engine"
	"dssmem/internal/db/storage"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

// imageSum hashes every allocated page of a pool with its kind.
func imageSum(p *storage.Pool) [32]byte {
	h := sha256.New()
	for pg := 0; pg < p.Used(); pg++ {
		h.Write([]byte{byte(p.KindOf(pg))})
		h.Write(p.PageBytes(pg))
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedImageMatchesFreshLoad runs the paper's three queries at 8
// processes on both machines concurrently over one dataset's shared image
// and checks each run's Stats JSON against the same run over its own freshly
// opened and loaded database. The image's pages must be unchanged
// afterwards. Under -race it also checks that runs only read the image.
func TestSharedImageMatchesFreshLoad(t *testing.T) {
	data := tpch.Generate(0.002, 7)
	var all []Options
	for _, spec := range []machine.Spec{machine.OriginSpec(32, 256), machine.VClassSpec(16, 256)} {
		for _, q := range tpch.AllQueries {
			o := opts(spec, q, 8)
			o.Data = data
			all = append(all, o)
		}
	}
	img := data.Image(dbConfig(all[0]))
	before := imageSum(img.Pool)

	shared := make([][]byte, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, o := range all {
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			st, err := Run(o)
			if err == nil {
				shared[i], err = json.Marshal(st)
			}
			errs[i] = err
		}(i, o)
	}
	wg.Wait()

	for i, o := range all {
		name := fmt.Sprintf("%s/%v", o.Spec.Name, o.Query)
		if errs[i] != nil {
			t.Fatalf("%s over the shared image: %v", name, errs[i])
		}
		o.Validate = true
		db := engine.Open(dbConfig(o))
		tpch.Load(db, o.Data)
		st, err := simulate(context.Background(), o, db)
		if err != nil {
			t.Fatalf("%s over a fresh load: %v", name, err)
		}
		fresh, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(shared[i]) != string(fresh) {
			t.Errorf("%s: stats over the shared image differ from a fresh load\nshared: %s\nfresh:  %s", name, shared[i], fresh)
		}
	}
	if data.Image(dbConfig(all[0])) != img {
		t.Fatal("the dataset built its image twice")
	}
	if imageSum(img.Pool) != before {
		t.Fatal("runs changed the shared image's pages")
	}
}
