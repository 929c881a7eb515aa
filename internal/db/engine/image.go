package engine

import (
	"fmt"
	"sort"

	"dssmem/internal/db/btree"
	"dssmem/internal/db/storage"
)

// Image is the warm-state snapshot of a loaded database at the measured-region
// boundary: the buffer-pool page bytes plus the structural metadata (heaps,
// indexes, schemas) needed to rebuild live handles over them. The warmup
// prelude runs entirely through storage.NullMem — it never touches the machine
// model — so this image, together with a fresh machine, IS the complete warm
// state of a run at the point workload.run calls ResetCounters.
//
// The image's identity depends only on the dataset (SF, seed) and the two
// knobs that shape the shared-memory layout: PoolPages and BufHeaderBytes.
// Machine spec, query, process count and trial provably do not affect it.
type Image struct {
	// Layout identity: FromImage refuses a config that disagrees.
	PoolPages      int
	BufHeaderBytes int
	SharedBytes    uint64

	// PoolData and Kinds cover exactly the allocated pages.
	PoolData []byte
	Kinds    []storage.PageKind

	// Rels lists relations in catalog creation (ID) order, so restore
	// reproduces identical catalog metadata addresses.
	Rels []RelImage
}

// RelImage is one relation's structural metadata.
type RelImage struct {
	Name    string
	Cols    []storage.Column // heap schema, in column order
	Pages   []int            // heap pages, in append order
	Count   int              // heap tuple count
	Indexes []IndexImage     // sorted by name for deterministic encoding
}

// IndexImage is one B+tree's structural metadata; its nodes live in PoolData.
type IndexImage struct {
	Name string
	Root int
	Size int
}

// Image captures the database's warm state. Call it only at the bulk-load
// boundary (before any charged execution): runtime state accumulated by
// queries — hint-bit history, lock state, pin counts — is deliberately not
// captured, because the measured region must start from the same state a
// fresh load produces.
func (db *Database) Image() *Image {
	img := &Image{
		PoolPages:      db.cfg.PoolPages,
		BufHeaderBytes: db.cfg.BufHeaderBytes,
		SharedBytes:    db.SharedBytes,
		PoolData:       db.Pool.UsedData(),
		Kinds:          append([]storage.PageKind(nil), db.Pool.UsedKinds()...),
	}
	for _, rel := range db.Catalog.All() {
		ri := RelImage{Name: rel.Name, Count: rel.Heap.NumTuples()}
		sch := rel.Heap.Schema()
		for i := 0; i < sch.NumCols(); i++ {
			ri.Cols = append(ri.Cols, sch.Col(i))
		}
		for i := 0; i < rel.Heap.NumPages(); i++ {
			ri.Pages = append(ri.Pages, rel.Heap.PoolPage(i))
		}
		names := make([]string, 0, len(rel.Indexes))
		for name := range rel.Indexes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := rel.Indexes[name]
			ri.Indexes = append(ri.Indexes, IndexImage{Name: name, Root: t.Root(), Size: t.Len()})
		}
		img.Rels = append(img.Rels, ri)
	}
	return img
}

// FromImage opens a database restored from a warm-state image, applying the
// run's runtime knobs (spin limit, hint bits, cold pool) fresh from cfg while
// taking the pool contents and structural metadata from the image. The
// restored database is byte-identical — same addresses, same page bytes, same
// catalog metadata — to one built by Open + load under the same cfg.
//
// Every structural claim the image makes is validated; a stale or corrupt
// image yields an error (callers fall back to a full rebuild), never a panic.
func FromImage(img *Image, cfg Config) (*Database, error) {
	if img == nil {
		return nil, fmt.Errorf("engine: restore: nil image")
	}
	if cfg.PoolPages != img.PoolPages {
		return nil, fmt.Errorf("engine: restore: config wants %d pool pages, image has %d", cfg.PoolPages, img.PoolPages)
	}
	effHdr := cfg.BufHeaderBytes
	if effHdr <= 0 {
		effHdr = DefaultBufHeaderBytes
	}
	if effHdr != img.BufHeaderBytes {
		return nil, fmt.Errorf("engine: restore: config wants %d-byte buffer headers, image has %d", effHdr, img.BufHeaderBytes)
	}
	db := Open(cfg)
	if db.SharedBytes != img.SharedBytes {
		return nil, fmt.Errorf("engine: restore: layout drift: open computes %d shared bytes, image recorded %d", db.SharedBytes, img.SharedBytes)
	}
	if err := db.Pool.Restore(img.PoolData, img.Kinds); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	seen := make(map[string]bool, len(img.Rels))
	for _, ri := range img.Rels {
		if ri.Name == "" || seen[ri.Name] {
			return nil, fmt.Errorf("engine: restore: empty or duplicate relation name %q", ri.Name)
		}
		seen[ri.Name] = true
		for _, c := range ri.Cols {
			if c.Width != 4 && c.Width != 8 {
				return nil, fmt.Errorf("engine: restore: relation %s column %q has width %d", ri.Name, c.Name, c.Width)
			}
		}
		if len(ri.Cols) == 0 {
			return nil, fmt.Errorf("engine: restore: relation %s has no columns", ri.Name)
		}
		heap, err := storage.RestoreHeap(db.Pool, storage.NewSchema(ri.Cols...), ri.Pages, ri.Count)
		if err != nil {
			return nil, fmt.Errorf("engine: restore: relation %s: %w", ri.Name, err)
		}
		rel := db.Catalog.Create(ri.Name, heap)
		for _, ix := range ri.Indexes {
			t, err := btree.Restore(db.Pool, ix.Root, ix.Size)
			if err != nil {
				return nil, fmt.Errorf("engine: restore: index %s.%s: %w", ri.Name, ix.Name, err)
			}
			db.Catalog.AddIndex(rel, ix.Name, t)
		}
	}
	return db, nil
}
