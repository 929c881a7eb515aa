package tpch

import (
	"sync"

	"dssmem/internal/db/engine"
)

// image is one loaded database, built on first use.
type image struct {
	once sync.Once
	db   *engine.Database
}

// Image returns d bulk-loaded into a database with cfg's layout, built once
// per dataset and layout and then frozen read-only. A run over d takes
// Image(cfg).Fork(cfg): its own locks, hint bits and counters over the one
// loaded pool, instead of a private copy. The image lives as long as d. Safe
// for concurrent use.
func (d *Data) Image(cfg engine.Config) *engine.Database {
	l := cfg.Layout()
	d.imagesMu.Lock()
	im := d.images[l]
	if im == nil {
		if d.images == nil {
			d.images = make(map[engine.Layout]*image)
		}
		im = &image{}
		d.images[l] = im
	}
	d.imagesMu.Unlock()
	im.once.Do(func() {
		db := engine.Open(engine.Config{PoolPages: l.PoolPages, BufHeaderBytes: l.BufHeaderBytes})
		Load(db, d)
		db.Pool.Freeze()
		im.db = db
	})
	return im.db
}
