package isa

// PageBits is the log2 of the simulated page size. Physical page numbers
// (PPNs) — the tags the paper's TPBuf compares — are addr >> PageBits.
const PageBits = 12

// PageSize is the simulated page size in bytes.
const PageSize = 1 << PageBits

// Memory is the architectural backing store seen by the reference
// interpreter and, behind the cache hierarchy, by the out-of-order core.
// Reads of never-written locations return zero. Accesses may straddle page
// boundaries; size must be 1..8.
type Memory interface {
	Read(addr uint64, size int) uint64
	Write(addr uint64, size int, val uint64)
}

// FlatMem is a sparse, page-granular implementation of Memory. The zero
// value is not usable; create one with NewFlatMem.
//
// A FlatMem may sit over an immutable Image (Install): an image page is
// copied into the FlatMem's own page map the first time it is read or
// written, so pages a run never touches are never allocated and writes
// never reach the image.
type FlatMem struct {
	pages map[uint64]*[PageSize]byte
	image *Image

	// One-entry page cache: accesses are overwhelmingly sequential or
	// within a working page, so remembering the last resident page turns
	// the common case from a map lookup into one compare.
	lastPPN  uint64
	lastPage *[PageSize]byte
}

// NewFlatMem returns an empty sparse memory.
func NewFlatMem() *FlatMem {
	return &FlatMem{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *FlatMem) page(ppn uint64, alloc bool) *[PageSize]byte {
	if m.lastPage != nil && m.lastPPN == ppn {
		return m.lastPage
	}
	p := m.pages[ppn]
	if p == nil {
		if p = m.image.materialize(ppn); p == nil && alloc {
			p = new([PageSize]byte)
		}
		if p != nil {
			m.pages[ppn] = p
		}
	}
	if p != nil {
		m.lastPPN, m.lastPage = ppn, p
	}
	return p
}

// Install makes img the memory's initial contents: every byte img
// initializes reads as img's value until it is overwritten. Pages already
// resident take img's bytes now; the rest are copied from img on first
// touch. img is only read, so one Image may back any number of FlatMems
// concurrently. Installing over an earlier image first materializes the
// earlier image's untouched pages, so the later image overlays the
// earlier one exactly as eager writes would.
func (m *FlatMem) Install(img *Image) {
	if m.image != nil {
		for ppn := range m.image.pages {
			m.page(ppn, false)
		}
	}
	for ppn, ip := range img.pages {
		if p := m.pages[ppn]; p != nil {
			ip.copyTo(p)
		}
	}
	m.image = img
}

// ByteAt returns the byte at addr (zero if the page was never written).
func (m *FlatMem) ByteAt(addr uint64) byte {
	p := m.page(addr>>PageBits, false)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// SetByte stores one byte at addr.
func (m *FlatMem) SetByte(addr uint64, b byte) {
	m.page(addr>>PageBits, true)[addr&(PageSize-1)] = b
}

// Read returns size bytes at addr, little-endian, zero-extended to 64 bits.
func (m *FlatMem) Read(addr uint64, size int) uint64 {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize {
		p := m.page(addr>>PageBits, false)
		if p == nil {
			return 0
		}
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *FlatMem) Write(addr uint64, size int, val uint64) {
	off := addr & (PageSize - 1)
	if off+uint64(size) <= PageSize {
		p := m.page(addr>>PageBits, true)
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(val >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr.
func (m *FlatMem) SetBytes(addr uint64, b []byte) {
	for i, c := range b {
		m.SetByte(addr+uint64(i), c)
	}
}

// BytesAt copies n bytes starting at addr into a fresh slice.
func (m *FlatMem) BytesAt(addr uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.ByteAt(addr + uint64(i))
	}
	return b
}

// Pages returns the number of resident pages: pages written, or read from
// an installed image, so far. Untouched image pages are not counted.
func (m *FlatMem) Pages() int { return len(m.pages) }

// Image is an immutable, sparse initial memory image. Each page keeps only
// the span between its first and last initialized byte, so a page holding
// one 8-byte word costs 8 bytes, not a 4KB page. Build one with BuildImage;
// after that it is never written and is safe for concurrent use.
type Image struct {
	pages map[uint64]imagePage
}

// imagePage holds a page's bytes [off, off+len(data)); the rest are zero.
type imagePage struct {
	off  int
	data []byte
}

func (ip imagePage) copyTo(p *[PageSize]byte) { copy(p[ip.off:], ip.data) }

// BuildImage runs fill against an empty image and returns the result. fill
// sees an ordinary Memory (so program loaders write into it unchanged); it
// must not keep that Memory after it returns.
func BuildImage(fill func(Memory)) *Image {
	img := &Image{pages: make(map[uint64]imagePage)}
	fill(imageWriter{img})
	return img
}

// Pages returns the number of pages the image initializes.
func (img *Image) Pages() int { return len(img.pages) }

// materialize returns a fresh copy of page ppn, or nil when img (which may
// be nil) does not initialize it.
func (img *Image) materialize(ppn uint64) *[PageSize]byte {
	if img == nil {
		return nil
	}
	ip, ok := img.pages[ppn]
	if !ok {
		return nil
	}
	p := new([PageSize]byte)
	ip.copyTo(p)
	return p
}

// imageWriter is the Memory BuildImage hands to its fill function.
type imageWriter struct{ img *Image }

// span widens page ppn's span to cover [lo, hi) and returns those bytes.
func (w imageWriter) span(ppn uint64, lo, hi int) []byte {
	ip, ok := w.img.pages[ppn]
	switch {
	case !ok:
		ip = imagePage{off: lo, data: make([]byte, hi-lo)}
	case lo < ip.off:
		grown := make([]byte, max(hi, ip.off+len(ip.data))-lo)
		copy(grown[ip.off-lo:], ip.data)
		ip = imagePage{off: lo, data: grown}
	case hi > ip.off+len(ip.data):
		ip.data = append(ip.data, make([]byte, hi-ip.off-len(ip.data))...)
	}
	w.img.pages[ppn] = ip
	return ip.data[lo-ip.off : hi-ip.off]
}

func (w imageWriter) Write(addr uint64, size int, val uint64) {
	off := int(addr & (PageSize - 1))
	if off+size > PageSize {
		for i := 0; i < size; i++ {
			w.Write(addr+uint64(i), 1, val>>(8*i))
		}
		return
	}
	b := w.span(addr>>PageBits, off, off+size)
	for i := range b {
		b[i] = byte(val >> (8 * i))
	}
}

func (w imageWriter) Read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		ip := w.img.pages[a>>PageBits]
		if o := int(a&(PageSize-1)) - ip.off; o >= 0 && o < len(ip.data) {
			v |= uint64(ip.data[o]) << (8 * i)
		}
	}
	return v
}
