// Package shadow implements Kremlin's hierarchical shadow memory (§4.2).
//
// Every shadowed location (a simulated heap address or an SSA register)
// carries a vector of availability times, one per active region-nesting
// depth, because HCPA runs an independent critical path analysis at every
// level of the dynamic region tree. Each time is tagged with the instance
// ID of the region that was active at that depth when the value was
// written; on a read, a tag mismatch means the value was produced before
// the current region began, so for the purposes of that region's analysis
// the value is available at time 0 — this is exactly the paper's mechanism
// for restarting time at region entry without copying the whole table.
//
// Heap shadow state lives in a two-level table (page directory → page),
// dynamically allocated as the simulated address space is touched and
// released again when the program frees the underlying memory. Pages use
// struct-of-arrays fixed-stride storage — one times array and one tags
// array per page instead of one heap-allocated vector per address — so the
// per-instruction write path is a strided copy with no allocation and the
// per-level read walks contiguous memory. A one-entry page cache in front
// of the page directory captures the spatial locality of array kernels,
// and pages released by Free are pooled for the next allocation (the
// interpreter frees every frame's locals on return, so page churn is
// constant in steady state).
package shadow

// Entry is one (availability time, region-instance tag) pair.
type Entry struct {
	Time uint64
	Tag  uint64
}

// Vec is a per-depth vector of entries; index i is region-nesting depth i.
type Vec []Entry

// Read returns the availability time of the vector at depth level for the
// region instance tag, applying the tag-mismatch-is-zero rule.
func (v Vec) Read(level int, tag uint64) uint64 {
	if level >= len(v) {
		return 0
	}
	if v[level].Tag != tag {
		return 0
	}
	return v[level].Time
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// strideQuantum rounds slot strides so small depth fluctuations do not
	// force page regrowth.
	strideQuantum = 4
	// pagePoolCap bounds the number of freed pages kept for reuse.
	pagePoolCap = 32
)

// page is the shadow state of one 4096-address span in struct-of-arrays
// form: slot a's vector lives at times[a*stride : a*stride+nlen[a]] (tags
// parallel). stride grows on demand when a write outgrows it.
type page struct {
	stride int
	nlen   []uint16 // per-slot stored vector length
	times  []uint64
	tags   []uint64
}

func newPage(stride int) *page {
	return &page{
		stride: stride,
		nlen:   make([]uint16, pageSize),
		times:  make([]uint64, pageSize*stride),
		tags:   make([]uint64, pageSize*stride),
	}
}

func roundStride(n int) int {
	if n < strideQuantum {
		n = strideQuantum
	}
	return (n + strideQuantum - 1) &^ (strideQuantum - 1)
}

// grow re-strides the page so every slot can hold n entries.
func (p *page) grow(n int) {
	ns := p.stride * 2
	if ns < n {
		ns = n
	}
	ns = roundStride(ns)
	times := make([]uint64, pageSize*ns)
	tags := make([]uint64, pageSize*ns)
	for slot := 0; slot < pageSize; slot++ {
		l := int(p.nlen[slot])
		if l == 0 {
			continue
		}
		copy(times[slot*ns:], p.times[slot*p.stride:slot*p.stride+l])
		copy(tags[slot*ns:], p.tags[slot*p.stride:slot*p.stride+l])
	}
	p.stride, p.times, p.tags = ns, times, tags
}

// reset clears every slot (storage is kept for reuse).
func (p *page) reset() {
	for i := range p.nlen {
		p.nlen[i] = 0
	}
}

// Memory is the two-level shadow table over the simulated address space.
type Memory struct {
	pages map[uint64]*page

	// One-entry cache of the last page touched; valid while lastPg != nil.
	lastIdx uint64
	lastPg  *page

	pool []*page

	// Stats for the compression/overhead experiments.
	PagesAllocated uint64
	Writes         uint64
	Reads          uint64
}

// NewMemory returns an empty shadow memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// lookup returns the page holding addr, or nil, through the one-entry cache.
func (m *Memory) lookup(idx uint64) *page {
	if m.lastPg != nil && m.lastIdx == idx {
		return m.lastPg
	}
	p := m.pages[idx]
	if p != nil {
		m.lastIdx, m.lastPg = idx, p
	}
	return p
}

// Slot is a borrowed, read-only view of the vector stored at one address.
// It is valid only until the next write or free on the Memory.
type Slot struct {
	Times []uint64
	Tags  []uint64
}

// Len returns the number of stored levels.
func (s Slot) Len() int { return len(s.Times) }

// Read returns the availability time at depth level for the region
// instance tag, applying the tag-mismatch-is-zero rule.
func (s Slot) Read(level int, tag uint64) uint64 {
	if level >= len(s.Times) || s.Tags[level] != tag {
		return 0
	}
	return s.Times[level]
}

// Load returns a borrowed view of the vector at addr (zero-length if the
// address was never written). This is the allocation-free read path.
func (m *Memory) Load(addr uint64) Slot {
	m.Reads++
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return Slot{}
	}
	slot := int(addr & pageMask)
	n := int(p.nlen[slot])
	if n == 0 {
		return Slot{}
	}
	base := slot * p.stride
	return Slot{Times: p.times[base : base+n], Tags: p.tags[base : base+n]}
}

// ReadVec returns a copy of the vector stored at addr, or nil. Convenience
// form of Load for tests and non-hot callers.
func (m *Memory) ReadVec(addr uint64) Vec {
	s := m.Load(addr)
	if s.Len() == 0 {
		return nil
	}
	v := make(Vec, s.Len())
	for i := range v {
		v[i] = Entry{Time: s.Times[i], Tag: s.Tags[i]}
	}
	return v
}

// WriteVec stores the first n entries of src at addr. The entries are
// copied into the page's strided storage; src is never retained.
func (m *Memory) WriteVec(addr uint64, src Vec, n int) {
	m.Writes++
	idx := addr >> pageShift
	p := m.lookup(idx)
	if p == nil {
		p = m.newPageFor(n)
		m.pages[idx] = p
		m.lastIdx, m.lastPg = idx, p
		m.PagesAllocated++
	}
	if n > p.stride {
		p.grow(n)
	}
	slot := int(addr & pageMask)
	base := slot * p.stride
	times := p.times[base : base+n]
	tags := p.tags[base : base+n]
	for i := 0; i < n; i++ {
		times[i] = src[i].Time
		tags[i] = src[i].Tag
	}
	p.nlen[slot] = uint16(n)
}

// newPageFor returns a cleared page able to hold n-entry vectors, reusing
// a pooled page when one is available.
func (m *Memory) newPageFor(n int) *page {
	if l := len(m.pool); l > 0 {
		p := m.pool[l-1]
		m.pool = m.pool[:l-1]
		if n > p.stride {
			p.grow(n)
		}
		return p
	}
	return newPage(roundStride(n))
}

// release returns a page to the pool (cleared) or drops it.
func (m *Memory) release(p *page) {
	if len(m.pool) < pagePoolCap {
		p.reset()
		m.pool = append(m.pool, p)
	}
}

// Free clears the shadow state for the address range [base, base+size),
// mirroring the paper's use of free() as a deallocation signal. Pages that
// become fully contained in the range are released to the page pool.
func (m *Memory) Free(base, size uint64) {
	if size == 0 {
		return
	}
	end := base + size
	firstPage := base >> pageShift
	lastPage := (end - 1) >> pageShift
	for pg := firstPage; pg <= lastPage; pg++ {
		p := m.pages[pg]
		if p == nil {
			continue
		}
		pgStart := pg << pageShift
		pgEnd := pgStart + pageSize
		if base <= pgStart && end >= pgEnd {
			delete(m.pages, pg)
			if m.lastPg == p {
				m.lastPg = nil
			}
			m.release(p)
			continue
		}
		lo := base
		if lo < pgStart {
			lo = pgStart
		}
		hi := end
		if hi > pgEnd {
			hi = pgEnd
		}
		for a := lo; a < hi; a++ {
			p.nlen[a&pageMask] = 0
		}
	}
}

// NumPages reports the number of live shadow pages.
func (m *Memory) NumPages() int { return len(m.pages) }

// RegisterTable is the directly-addressed shadow table for a function
// frame's SSA values — the paper's "shadow register table for local
// variables", which avoids the two-level lookup on the common local-access
// path.
type RegisterTable struct {
	vecs []Vec
}

// NewRegisterTable sizes a table for n values.
func NewRegisterTable(n int) *RegisterTable {
	return &RegisterTable{vecs: make([]Vec, n)}
}

// Get returns the vector of value id.
func (t *RegisterTable) Get(id int) Vec { return t.vecs[id] }

// Set stores the first n entries of src as the vector of value id,
// reusing storage.
func (t *RegisterTable) Set(id int, src Vec, n int) {
	dst := t.vecs[id]
	if cap(dst) < n {
		dst = make(Vec, n)
	} else {
		dst = dst[:n]
	}
	copy(dst, src[:n])
	t.vecs[id] = dst
}

// Dest returns value id's vector resized to n entries, for the caller to
// overwrite in place (contents undefined), reusing storage.
func (t *RegisterTable) Dest(id, n int) Vec {
	dst := t.vecs[id]
	if cap(dst) < n {
		dst = make(Vec, n, n+4)
		t.vecs[id] = dst
	} else if len(dst) != n {
		dst = dst[:n]
		t.vecs[id] = dst
	}
	return dst
}

// Reset empties the table and resizes it for n values, keeping each slot's
// storage for reuse (a zero-length vector reads as all-zero times). Used
// by the frame pool: a recycled frame must not read the previous frame's
// availability times.
func (t *RegisterTable) Reset(n int) {
	if cap(t.vecs) < n {
		t.vecs = make([]Vec, n)
		return
	}
	t.vecs = t.vecs[:n]
	for i, v := range t.vecs {
		if v != nil {
			t.vecs[i] = v[:0]
		}
	}
}
