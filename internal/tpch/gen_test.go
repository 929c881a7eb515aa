package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// The small preset's scale factor and seed.
const (
	smallSF   = 0.006
	smallSeed = 7
)

// contentDigest hashes every generated row, field by field.
func contentDigest(d *Data) string {
	h := sha256.New()
	w := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	w(d.SF)
	w(d.Lineitem)
	w(d.Orders)
	w(d.Suppliers)
	w(d.Nations)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateSmallContent pins the small preset's generated data, so a
// change to how Generate allocates cannot change what it generates.
func TestGenerateSmallContent(t *testing.T) {
	d := Generate(smallSF, smallSeed)
	const want = "0bb6e6a1044951fe680b7242d2efe57b331d031ec2a09e5b9f4f492ed5ac3be6"
	if got := contentDigest(d); got != want {
		t.Fatalf("small data digest = %s, want %s (%d lineitems, %d orders)",
			got, want, len(d.Lineitem), len(d.Orders))
	}
}

// TestGenerateAllocatesOnce bounds the bytes Generate allocates at 1.5× the
// slices it returns: growing Lineitem by append would allocate several times
// the final slice.
func TestGenerateAllocatesOnce(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := Generate(smallSF, smallSeed)
	runtime.ReadMemStats(&after)
	final := uint64(len(d.Lineitem))*uint64(unsafe.Sizeof(LineItem{})) +
		uint64(len(d.Orders))*uint64(unsafe.Sizeof(Order{})) +
		uint64(len(d.Suppliers))*uint64(unsafe.Sizeof(Supplier{})) +
		uint64(len(d.Nations))*uint64(unsafe.Sizeof(int32(0)))
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(final); ratio > 1.5 {
		t.Fatalf("Generate allocated %d bytes for %d bytes of slices (%.2f×), want at most 1.5×",
			alloc, final, ratio)
	}
}
