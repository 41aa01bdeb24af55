package core

// AppearanceIndex is the flat CSR-style appearance structure of a program:
// for every page, its sorted distinct appearance columns, stored in a single
// shared column arena instead of one heap slice per page. It is the
// allocation-free backbone of Analyze, Program.Validate and the air-index
// math in internal/bindex; the legacy [][]int AppearanceTable is a thin
// materialisation of this index kept for compatibility.
//
// Layout: page id's columns are cols[offs[id]:offs[id+1]], ascending. Pages
// that never appear have an empty (not nil) range. Columns fit in int32 by
// construction: a Program's length is an int built from slot counts that the
// schedulers keep far below 2^31, and PageID itself is an int32.
type AppearanceIndex struct {
	length int
	offs   []int32 // len Pages()+1; monotone, offs[0] == 0
	cols   []int32 // column arena, grouped by page, ascending within a page
}

// BuildAppearanceIndex scans p's grid and returns its appearance index.
// The build is two linear column-major passes (count, then fill) over the
// grid with O(n) scratch — no per-page append growth, six allocations total
// regardless of how many pages or appearances the program has.
func BuildAppearanceIndex(p *Program) *AppearanceIndex {
	n := p.gs.Pages()
	ix := &AppearanceIndex{
		length: p.length,
		offs:   make([]int32, n+1),
	}
	// mark[id] deduplicates a page broadcast on several channels of the same
	// column. The counting pass stores slot+1 (always positive), the fill
	// pass stores ^slot (always negative), so one array serves both passes
	// without a reset in between.
	scratch := make([]int32, 2*n)
	mark, cur := scratch[:n:n], scratch[n:]

	for slot := 0; slot < p.length; slot++ {
		for ch := 0; ch < p.channels; ch++ {
			id := p.grid[ch*p.length+slot]
			if id == None || mark[id] == int32(slot+1) {
				continue
			}
			mark[id] = int32(slot + 1)
			ix.offs[id+1]++
		}
	}
	for i := 0; i < n; i++ {
		ix.offs[i+1] += ix.offs[i]
	}
	ix.cols = make([]int32, ix.offs[n])
	copy(cur, ix.offs[:n])
	for slot := 0; slot < p.length; slot++ {
		for ch := 0; ch < p.channels; ch++ {
			id := p.grid[ch*p.length+slot]
			if id == None || mark[id] == ^int32(slot) {
				continue
			}
			mark[id] = ^int32(slot)
			ix.cols[cur[id]] = int32(slot)
			cur[id]++
		}
	}
	return ix
}

// Pages returns the number of pages the index covers.
func (ix *AppearanceIndex) Pages() int { return len(ix.offs) - 1 }

// Length returns the cycle length of the indexed program.
func (ix *AppearanceIndex) Length() int { return ix.length }

// Count returns how many distinct columns page id appears in.
func (ix *AppearanceIndex) Count(id PageID) int {
	return int(ix.offs[id+1] - ix.offs[id])
}

// Columns returns page id's sorted distinct appearance columns as a
// subslice of the shared arena; callers must not modify it. Pages that
// never appear return an empty slice.
func (ix *AppearanceIndex) Columns(id PageID) []int32 {
	return ix.cols[ix.offs[id]:ix.offs[id+1]]
}

// ColumnCursor finds a page's first appearance column at or after a cycle
// instant. A searching cursor binary-searches. A walking cursor resumes
// from the page's previous position, amortised O(1) while a page's
// instants do not decrease, as in a shard of a sorted stream, and restarts
// from column 0 when they do. Both return the same index. A walking cursor
// belongs to one goroutine.
type ColumnCursor struct {
	ix  *AppearanceIndex
	pos []columnPos // per page; nil for a searching cursor
}

// columnPos is a page's walk state: k, the smallest column index not known
// to precede prev, the page's previous instant.
type columnPos struct {
	k    int32
	prev float64
}

// NewCursor returns a walking cursor over ix if sorted, else a searching one.
func (ix *AppearanceIndex) NewCursor(sorted bool) ColumnCursor {
	c := ColumnCursor{ix: ix}
	if sorted {
		c.pos = make([]columnPos, ix.Pages())
	}
	return c
}

// First returns page id's columns and the index k of the first at or after
// cycle instant u (0 <= u < Length); k == len(cols) when the next
// appearance is cols[0] of the following cycle. The receiver is a value so
// that closures capture cursors without moving them to the heap.
func (c ColumnCursor) First(id PageID, u float64) (cols []int32, k int32) {
	cols = c.ix.Columns(id)
	// Both forms stop at the first k with float64(cols[k]) >= u.
	if c.pos == nil {
		lo, hi := 0, len(cols)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if float64(cols[m]) < u {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return cols, int32(lo)
	}
	p := &c.pos[id]
	if u < p.prev {
		p.k = 0 // the instant wrapped to a new cycle, or a new shard began
	}
	p.prev = u
	k = p.k
	for int(k) < len(cols) && float64(cols[k]) < u {
		k++
	}
	p.k = k
	return cols, k
}

// WaitAt is the wait from cycle instant u to column k of cols in a cycle
// of L slots, k as First returns it. A page that never appears waits a
// full cycle.
func WaitAt(cols []int32, k int32, u, L float64) float64 {
	if len(cols) == 0 {
		return L
	}
	if int(k) == len(cols) {
		return float64(cols[0]) + L - u
	}
	return float64(cols[k]) - u
}

// AppendColumns appends page id's appearance columns to dst and returns the
// extended slice, for callers that need []int values.
func (ix *AppearanceIndex) AppendColumns(dst []int, id PageID) []int {
	for _, c := range ix.Columns(id) {
		dst = append(dst, int(c))
	}
	return dst
}

// Table materialises the legacy per-page [][]int appearance table from the
// index: one arena allocation plus the header slice, with nil entries for
// pages that never appear (the historical AppearanceTable contract).
func (ix *AppearanceIndex) Table() [][]int {
	table := make([][]int, ix.Pages())
	arena := make([]int, len(ix.cols))
	for i := range ix.cols {
		arena[i] = int(ix.cols[i])
	}
	for id := range table {
		lo, hi := ix.offs[id], ix.offs[id+1]
		if lo == hi {
			continue
		}
		table[id] = arena[lo:hi:hi]
	}
	return table
}

// WorstGap returns the largest cyclic inter-appearance gap of page id in
// slots; pages that never appear report the cycle length.
func (ix *AppearanceIndex) WorstGap(id PageID) int {
	cols := ix.Columns(id)
	if len(cols) == 0 {
		return ix.length
	}
	worst := int(cols[0]) + ix.length - int(cols[len(cols)-1])
	for k := 1; k < len(cols); k++ {
		if g := int(cols[k] - cols[k-1]); g > worst {
			worst = g
		}
	}
	return worst
}
