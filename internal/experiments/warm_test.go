package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dssmem/internal/ckpt"
	"dssmem/internal/core"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// TestWarmRestoreByteIdentical is the tentpole's core correctness claim:
// a measurement that restores the warmup prelude from a checkpoint produces
// exactly the measurement a from-scratch run produces — same digest, same
// bytes — so checkpoints may stay outside the cache identity.
func TestWarmRestoreByteIdentical(t *testing.T) {
	data := tpch.Generate(Tiny.SF, Tiny.Seed)

	cold := NewEnvWith(Tiny, data)
	warm := NewEnvWith(Tiny, data)
	warm.Checkpoints = true
	warm.Tally = &RunTally{}

	for _, procs := range []int{1, 2} {
		a, err := cold.Measure(cold.VClass(), tpch.Q6, procs)
		if err != nil {
			t.Fatalf("cold measure p%d: %v", procs, err)
		}
		b, err := warm.Measure(warm.VClass(), tpch.Q6, procs)
		if err != nil {
			t.Fatalf("warm measure p%d: %v", procs, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("p%d: restored measurement differs from cold-run measurement:\ncold %+v\nwarm %+v", procs, a, b)
		}
	}

	tot := warm.Tally.Snapshot()
	if tot.Runs == 0 || tot.Restored != tot.Runs {
		t.Fatalf("want every run restored from checkpoint, got %d of %d", tot.Restored, tot.Runs)
	}
}

// TestWarmCheckpointCorruptionFallsBack covers the integrity satellite: a
// corrupt or truncated on-disk snapshot is quarantined by the store's frame
// verification and the measurement silently falls back to a full rebuild —
// same result, no panic, no wrong figure.
func TestWarmCheckpointCorruptionFallsBack(t *testing.T) {
	data := tpch.Generate(Tiny.SF, Tiny.Seed)
	dir := t.TempDir()

	store, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvWith(Tiny, data)
	env.Results = store
	env.Checkpoints = true
	want, err := env.Measure(env.VClass(), tpch.Q6, 2)
	if err != nil {
		t.Fatalf("seed measure: %v", err)
	}

	paths, err := filepath.Glob(filepath.Join(dir, rescache.NSWarm, "*", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no warm snapshot on disk (err %v)", err)
	}

	for _, corrupt := range []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("}{ not a frame"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			corrupt.mut(t, paths[0])
			// Drop the measurement results so the point recomputes while the
			// warm snapshot is damaged; keep the warmstate namespace.
			if err := os.RemoveAll(filepath.Join(dir, rescache.NSMeasurement)); err != nil {
				t.Fatal(err)
			}

			fresh, err := rescache.Open(dir) // fresh memory tier: reads hit disk
			if err != nil {
				t.Fatal(err)
			}
			env2 := NewEnvWith(Tiny, data)
			env2.Results = fresh
			env2.Checkpoints = true
			got, err := env2.Measure(env2.VClass(), tpch.Q6, 2)
			if err != nil {
				t.Fatalf("measure with corrupt checkpoint: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("measurement changed after checkpoint corruption:\nwant %+v\ngot  %+v", want, got)
			}
			if q := fresh.Stats().Quarantined; q == 0 {
				t.Fatalf("corrupt snapshot was not quarantined (stats %+v)", fresh.Stats())
			}
		})
	}
}

// TestWarmSnapshotSelfHeal covers the other damage class: an entry whose
// frame verifies (so the store serves it) but whose ckpt payload does not
// decode. warmSnapshot recaptures and overwrites it in place.
func TestWarmSnapshotSelfHeal(t *testing.T) {
	data := tpch.Generate(Tiny.SF, Tiny.Seed)
	store := rescache.NewMemory()

	key := ckpt.KeyFor(Tiny.SF, Tiny.Seed, data, 0)
	dig := rescache.Digest(key.Digest())
	if err := store.Put(rescache.NSWarm, dig, []byte("valid frame, not a snapshot")); err != nil {
		t.Fatal(err)
	}

	snap, hit, err := warmSnapshot(t.Context(), store, key, data, 0)
	if err != nil {
		t.Fatalf("self-heal: %v", err)
	}
	if hit {
		t.Fatalf("undecodable entry reported as a usable hit")
	}
	if snap == nil || snap.Image == nil {
		t.Fatalf("self-heal returned no snapshot")
	}
	// The overwritten entry now decodes for the next reader.
	raw, ok := store.Get(rescache.NSWarm, dig)
	if !ok {
		t.Fatalf("healed snapshot not stored")
	}
	if _, err := ckpt.Decode(raw); err != nil {
		t.Fatalf("healed snapshot does not decode: %v", err)
	}
}

// TestWarmAttach exercises the CLI-facing attach helper end to end against a
// disk store: miss then hit, and a run from the attached state matching a
// from-scratch run.
func TestWarmAttach(t *testing.T) {
	dir := t.TempDir()
	spec := Tiny

	opts := workload.Options{}
	hit, err := WarmAttach(t.Context(), dir, spec.SF, spec.Seed, &opts)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if hit {
		t.Fatalf("first attach reported a cache hit")
	}
	if opts.Data == nil || opts.Warm == nil {
		t.Fatalf("attach did not populate Data/Warm")
	}

	opts2 := workload.Options{}
	hit, err = WarmAttach(t.Context(), dir, spec.SF, spec.Seed, &opts2)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if !hit {
		t.Fatalf("second attach missed the disk store")
	}

	env := NewEnvWith(spec, opts2.Data)
	machineSpec := env.VClass()
	opts2.Spec = machineSpec
	opts2.Query = tpch.Q6
	opts2.Processes = 1
	opts2.OSTimeScale = spec.MemScale
	st, err := workload.RunContext(t.Context(), opts2)
	if err != nil {
		t.Fatalf("run from attached state: %v", err)
	}
	if !st.Restored {
		t.Fatalf("run did not restore from attached warm state")
	}

	want, err := env.Measure(machineSpec, tpch.Q6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.FromStats(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("attached run differs from from-scratch measurement:\nwant %+v\ngot  %+v", want, got)
	}
}
