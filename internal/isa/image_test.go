package isa

import (
	"math/rand"
	"sync"
	"testing"
)

// imageFixture initializes four pages: a full code-like page at 0x1000, a
// single word in the middle of page 0x5000, and a word straddling pages
// 0x8000 and 0x9000.
func imageFixture() *Image {
	return BuildImage(func(m Memory) {
		for a := uint64(0x1000); a < 0x2000; a += 8 {
			m.Write(a, 8, codeWord(a))
		}
		m.Write(0x5800, 8, 0x1122334455667788)
		m.Write(0x8FFC, 8, 0xA1A2A3A4A5A6A7A8)
	})
}

// codeWord is the fixture's value for the word at a.
func codeWord(a uint64) uint64 { return a * 0x9E3779B97F4A7C15 }

func TestImageFirstTouchRead(t *testing.T) {
	img := imageFixture()
	if img.Pages() != 4 {
		t.Fatalf("image initializes %d pages, want 4", img.Pages())
	}
	m := NewFlatMem()
	m.Install(img)
	if m.Pages() != 0 {
		t.Fatalf("install materialized %d pages, want 0", m.Pages())
	}
	if got := m.Read(0x5800, 8); got != 0x1122334455667788 {
		t.Fatalf("first-touch read = %#x", got)
	}
	if got := m.Read(0x57F8, 8); got != 0 {
		t.Fatalf("byte before the page's span = %#x, want 0", got)
	}
	if got := m.Read(0x1008, 8); got != codeWord(0x1008) {
		t.Fatalf("code page read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("%d pages resident after touching two, want 2", m.Pages())
	}
	if got := m.Read(0x20000, 8); got != 0 || m.Pages() != 2 {
		t.Fatalf("read outside the image = %#x with %d pages, want 0 with 2", got, m.Pages())
	}
}

// TestImageWritesArePrivate: a write to a materialized page reaches neither
// the image nor a second memory over the same image.
func TestImageWritesArePrivate(t *testing.T) {
	img := imageFixture()
	a, b := NewFlatMem(), NewFlatMem()
	a.Install(img)
	b.Install(img)
	a.Write(0x5800, 8, 0xDEAD)
	a.Write(0x1000, 1, 0xFF)
	if got := a.Read(0x5800, 8); got != 0xDEAD {
		t.Fatalf("written word reads %#x", got)
	}
	if got := b.Read(0x5800, 8); got != 0x1122334455667788 {
		t.Fatalf("write leaked into a second memory: %#x", got)
	}
	c := NewFlatMem()
	c.Install(img)
	if got := c.ByteAt(0x1000); got != byte(codeWord(0x1000)) {
		t.Fatalf("write leaked into the image: %#x", got)
	}
}

// TestImageStraddle: accesses across an image page and a page outside the
// image read and write as they would over eagerly written memory.
func TestImageStraddle(t *testing.T) {
	img := BuildImage(func(m Memory) { m.Write(PageSize-4, 4, 0x04030201) })
	m := NewFlatMem()
	m.Install(img)
	if got := m.Read(PageSize-4, 8); got != 0x04030201 {
		t.Fatalf("straddling read = %#x, want 0x04030201", got)
	}
	if m.Pages() != 1 {
		t.Fatalf("%d pages resident, want 1 (the page outside the image stays absent)", m.Pages())
	}
	m.Write(PageSize-2, 4, 0xCCDDEEFF)
	if got := m.Read(PageSize-4, 8); got != 0xCCDDEEFF0201 {
		t.Fatalf("read after straddling write = %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("%d pages resident after the write, want 2", m.Pages())
	}
}

// TestImageMatchesEagerWrites replays random writes (straddles, overlaps,
// spans grown both ways) eagerly into one memory and into an image under
// another, and checks every byte of the region reads the same.
func TestImageMatchesEagerWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type wr struct {
		addr uint64
		size int
		val  uint64
	}
	var ws []wr
	for i := 0; i < 400; i++ {
		ws = append(ws, wr{uint64(rng.Intn(4 * PageSize)), 1 + rng.Intn(8), rng.Uint64()})
	}
	eager := NewFlatMem()
	for _, w := range ws {
		eager.Write(w.addr, w.size, w.val)
	}
	img := BuildImage(func(m Memory) {
		for _, w := range ws {
			m.Write(w.addr, w.size, w.val)
		}
		// The builder reads back what it holds, as a FlatMem would.
		for a := uint64(0); a < 4*PageSize+8; a += 5 {
			if got, want := m.Read(a, 8), eager.Read(a, 8); got != want {
				t.Fatalf("builder read %#x = %#x, want %#x", a, got, want)
			}
		}
	})
	lazy := NewFlatMem()
	lazy.Install(img)
	for a := uint64(0); a < 4*PageSize+8; a++ {
		if got, want := lazy.ByteAt(a), eager.ByteAt(a); got != want {
			t.Fatalf("byte %#x = %#x, want %#x", a, got, want)
		}
	}
}

// TestInstallOverlays: installing over resident pages, or over an earlier
// image, leaves the memory as eager writes in the same order would.
func TestInstallOverlays(t *testing.T) {
	m := NewFlatMem()
	m.Write(0x5000, 8, 0xAAAA)
	m.Write(0x5800, 1, 0x77)
	m.Install(imageFixture())
	if got := m.Read(0x5000, 8); got != 0xAAAA {
		t.Fatalf("resident byte outside the image's span = %#x, want 0xAAAA", got)
	}
	if got := m.Read(0x5800, 8); got != 0x1122334455667788 {
		t.Fatalf("resident page not overlaid: %#x", got)
	}
	m.Install(BuildImage(func(w Memory) { w.Write(0x1000, 8, 7) }))
	if got := m.Read(0x1000, 8); got != 7 {
		t.Fatalf("second image not applied: %#x", got)
	}
	if got := m.Read(0x1008, 8); got != codeWord(0x1008) {
		t.Fatalf("first image lost under the second: %#x", got)
	}
}

// TestImageConcurrentMemories runs several memories over one image from
// concurrent goroutines (meaningful under -race: the image is only read).
func TestImageConcurrentMemories(t *testing.T) {
	img := imageFixture()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewFlatMem()
			m.Install(img)
			for i := uint64(0); i < 512; i++ {
				a := 0x1000 + (i*8+uint64(g)*64)%PageSize
				if got := m.Read(a, 8); got != codeWord(a) && got != uint64(g) {
					t.Errorf("goroutine %d read %#x = %#x", g, a, got)
					return
				}
				m.Write(a, 8, uint64(g))
			}
			if got := m.Read(0x5800, 8); got != 0x1122334455667788 {
				t.Errorf("goroutine %d read image word %#x", g, got)
			}
		}()
	}
	wg.Wait()
}
