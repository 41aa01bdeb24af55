package replan

import (
	"fmt"
	"math/rand"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// editInstance is the Figure 4 instance shape scaled to pages (8 groups,
// t1=4, c=2, uniform sizes) at the knee, ceil(MinChannels/5) channels.
func editInstance(tb testing.TB, pages int) (*core.GroupSet, int) {
	tb.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 8, pages, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return gs, core.CeilDiv(gs.MinChannels(), 5)
}

// TestAccountPlacedCellNeverCleared drives vacate, place and release on
// hand-built Deltas and placement logs over a 2-channel, 4-column grid. In the add case,
// page 0 lands on a cell the edit did not vacate: the cell was empty before
// the edit, so page 0 moved — a missing-key lookup must not read as "page
// 0 was here". The retire case covers Evicted and a survivor landing on the
// retired page's cell.
func TestAccountPlacedCellNeverCleared(t *testing.T) {
	const channels, columns = 2, 4
	s := delaymodel.Frequencies{1, 1}
	cases := []struct {
		name               string
		d                  *Delta
		gsOld, gsNew       *core.GroupSet
		added              core.PageID
		cleared, placed    []pamad.Cell // log order: pages ascending
		unch, mov, add, ev int
	}{
		{
			// Add to group 0: pages 0 | 1 become 0, 1(new) | 2(old 1).
			name:    "add",
			d:       &Delta{shiftAt: 1, shiftBy: 1, removed: core.None, oldPages: 2, newPages: 3},
			gsOld:   core.MustGroupSet([]core.Group{{Time: 2, Count: 1}, {Time: 4, Count: 1}}),
			gsNew:   core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 1}}),
			added:   1,
			cleared: []pamad.Cell{{Channel: 0, Column: 0}, {Channel: 0, Column: 1}},
			// page 0 on the empty (1,2): Moved; the new page 1 on page 0's
			// old cell: Added; page 2 (old 1) on its own cell: Unchanged.
			placed: []pamad.Cell{{Channel: 1, Column: 2}, {Channel: 0, Column: 0}, {Channel: 0, Column: 1}},
			unch:   1, mov: 1, add: 1, ev: 0,
		},
		{
			// Retire page 1: pages 0, 1 | 2 become 0 | 1(old 2).
			name:    "retire",
			d:       &Delta{shiftAt: 2, shiftBy: -1, removed: 1, oldPages: 3, newPages: 2},
			gsOld:   core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 1}}),
			gsNew:   core.MustGroupSet([]core.Group{{Time: 2, Count: 1}, {Time: 4, Count: 1}}),
			added:   core.None,
			cleared: []pamad.Cell{{Channel: 0, Column: 0}, {Channel: 0, Column: 1}, {Channel: 1, Column: 0}},
			// page 0 in place: Unchanged; page 1 (old 2) on the retired
			// page's cell: Moved.
			placed: []pamad.Cell{{Channel: 0, Column: 0}, {Channel: 0, Column: 1}},
			unch:   1, mov: 1, add: 0, ev: 1,
		},
	}
	for _, tc := range cases {
		cells := make([]core.PageID, channels*columns)
		for i := range cells {
			cells[i] = notCleared
		}
		d := tc.d
		d.Cleared = d.vacate(tc.cleared, tc.gsOld, s, 0, cells, channels)
		d.Placed = d.place(tc.placed, tc.gsNew, s, 0, tc.added, cells, channels)
		release(d.Cleared, cells, channels)
		if d.Unchanged != tc.unch || d.Moved != tc.mov || d.Added != tc.add || d.Evicted != tc.ev {
			t.Errorf("%s: unchanged/moved/added/evicted = %d/%d/%d/%d, want %d/%d/%d/%d", tc.name,
				d.Unchanged, d.Moved, d.Added, d.Evicted, tc.unch, tc.mov, tc.add, tc.ev)
		}
		for i, c := range tc.placed {
			if d.Placed[i] != (CellRef{Channel: c.Channel, Column: c.Column, Page: core.PageID(i)}) {
				t.Errorf("%s: Placed[%d] = %+v, want page %d at %+v", tc.name, i, d.Placed[i], i, c)
			}
		}
		for i, id := range cells {
			if id != notCleared {
				t.Errorf("%s: scratch cell %d left at %d, want it released", tc.name, i, id)
			}
		}
	}
}

// gridDiffCounts is the reference for a Delta's counters: a cell-by-cell
// diff of the pre-edit grid, remapped through RemapPage, against the
// post-edit grid. replayed reports whether a post-edit page was written by
// the edit (every page from the replayed group on for a suffix edit, the
// new page for an append); added is the post-edit ID with no pre-edit
// page, or core.None. Cells outside the replay must be the same on both
// sides of the edit.
func gridDiffCounts(t *testing.T, step int, before, after *core.Program, d *Delta, replayed func(core.PageID) bool, added core.PageID) (unchanged, moved, adds, evicted, cleared, placed int) {
	t.Helper()
	for ch := 0; ch < after.Channels(); ch++ {
		for col := 0; col < after.Length(); col++ {
			pre, post := before.At(ch, col), after.At(ch, col)
			if pre != core.None {
				if pre = d.RemapPage(pre); pre == core.None {
					evicted++
					cleared++
				} else if replayed(pre) {
					cleared++
				}
			}
			switch {
			case post != core.None && replayed(post):
				placed++
				switch {
				case pre == post:
					unchanged++
				case post == added:
					adds++
				default:
					moved++
				}
			case post != pre && (post != core.None || (pre != core.None && !replayed(pre))):
				t.Fatalf("step %d: cell (%d,%d) outside the replay changed from %d to %d", step, ch, col, pre, post)
			}
		}
	}
	return
}

// TestDeltaCountersMatchGridDiff checks Unchanged, Moved, Added and Evicted
// against gridDiffCounts over the edit-sequence generator at 10^3 and 10^4
// pages. The sum check in checkAccounting cannot catch a wrong split.
func TestDeltaCountersMatchGridDiff(t *testing.T) {
	for _, pages := range []int{1000, 10000} {
		gs, nReal := editInstance(t, pages)
		eng, err := New(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(pages)))
		suffix := 0
		for step := 0; step < 80; step++ {
			before := eng.Snapshot()
			gsOld, sOld := eng.GroupSet(), eng.Frequencies()
			d, err := randomEdit(rng, eng, 2*nReal)
			if err != nil {
				t.Fatalf("%d pages, step %d: %v", pages, step, err)
			}
			if d == nil {
				continue
			}
			if d.Kind == KindNone || d.Kind == KindRebuild {
				if d.Unchanged != 0 || d.Moved != 0 || d.Added != 0 || d.Evicted != 0 {
					t.Fatalf("%d pages, step %d: %v delta counts %+v", pages, step, d.Kind, d)
				}
				continue
			}

			// The post-edit page with no pre-edit preimage, if any.
			added := core.None
			hit := make([]bool, d.NewPages())
			for id := 0; id < d.OldPages(); id++ {
				if nid := d.RemapPage(core.PageID(id)); nid != core.None {
					hit[nid] = true
				}
			}
			for id, ok := range hit {
				if !ok {
					added = core.PageID(id)
				}
			}
			gsNew, sNew := eng.GroupSet(), eng.Frequencies()
			var replayed func(core.PageID) bool
			if d.Kind == KindAppend {
				replayed = func(id core.PageID) bool { return id == added }
			} else {
				suffix++
				g := 0
				for g < gsNew.Len() && gsOld.Group(g) == gsNew.Group(g) && sOld[g] == sNew[g] {
					g++
				}
				if d.FromGroup != g {
					t.Fatalf("%d pages, step %d: replay from group %d, first changed group is %d", pages, step, d.FromGroup, g)
				}
				first, _ := gsNew.GroupPages(g)
				replayed = func(id core.PageID) bool { return id >= first }
			}
			u, m, a, e, cl, pl := gridDiffCounts(t, step, before, eng.Program(), d, replayed, added)
			if d.Unchanged != u || d.Moved != m || d.Added != a || d.Evicted != e ||
				d.ClearedCells != cl || d.PlacedCells != pl {
				t.Fatalf("%d pages, step %d (%v): unchanged/moved/added/evicted/cleared/placed = %d/%d/%d/%d/%d/%d, grid diff %d/%d/%d/%d/%d/%d",
					pages, step, d.Kind, d.Unchanged, d.Moved, d.Added, d.Evicted, d.ClearedCells, d.PlacedCells, u, m, a, e, cl, pl)
			}
		}
		if suffix == 0 {
			t.Fatalf("%d pages: the edit sequence never replayed a suffix", pages)
		}
	}
}

// editPair retires and re-adds one page of group g, restoring the instance.
func editPair(tb testing.TB, eng *Engine, g int) (retire, add Kind) {
	d, err := eng.RetirePage(g)
	if err != nil {
		tb.Fatal(err)
	}
	retire = d.Kind
	if d, err = eng.AddPage(g); err != nil {
		tb.Fatal(err)
	}
	return retire, d.Kind
}

// TestSuffixEditAllocsIndependentOfPages pins the O(Δ) accounting: a
// retire+add pair on the same group allocates the same number of times at
// 10^3 and 10^5 pages (the cell lists are one allocation each, whatever
// their length; the accounting scratch is reused). The small instance has
// 1200 pages: at exactly 1000, retiring from groups 0-3 moves t_major and
// rebuilds, which is not the path pinned here.
func TestSuffixEditAllocsIndependentOfPages(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	measure := func(pages, g int) (float64, Kind, Kind) {
		gs, nReal := editInstance(t, pages)
		eng, err := New(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		retire, add := editPair(t, eng, g)
		return testing.AllocsPerRun(3, func() { editPair(t, eng, g) }), retire, add
	}
	for g := 0; g < 8; g++ {
		small, r1, a1 := measure(1200, g)
		large, r2, a2 := measure(100_000, g)
		if r1 != KindSuffix || r2 != KindSuffix || a1 != a2 {
			t.Fatalf("group %d: pair kinds %v+%v at 1200 pages, %v+%v at 10^5; want the same suffix edits",
				g, r1, a1, r2, a2)
		}
		if small != large {
			t.Errorf("group %d: retire+add pair allocates %.0f times at 1200 pages, %.0f at 10^5", g, small, large)
		}
	}
}

// BenchmarkReplanSuffixEdit times a retire+add pair in each group of the
// 10^5-page instance, with a from-scratch pamad.Build of the same instance
// as the same-run base: a pair is two edits, so an edit costs half a pair.
func BenchmarkReplanSuffixEdit(b *testing.B) {
	gs, nReal := editInstance(b, 100_000)
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pamad.Build(gs, nReal); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng, err := New(gs, nReal)
	if err != nil {
		b.Fatal(err)
	}
	for g := 0; g < gs.Len(); g++ {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			editPair(b, eng, g) // size the accounting scratch outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				editPair(b, eng, g)
			}
		})
	}
}
