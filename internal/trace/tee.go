package trace

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// teeDepth is the ring depth of a Tee: how many decoded columns the shared
// source may run ahead of its slowest open branch.
const teeDepth = 4

// Tee shares one source among n concurrent readers. It returns n branches,
// each of which delivers every column of src in order, while src itself is
// decoded exactly once: the first branch to need an undecoded interval pulls
// it from src into a fixed ring of teeDepth columns, and every branch copies
// its columns out of that ring. A branch may run at most teeDepth intervals
// ahead of the slowest open branch, so memory stays O(servers) whatever the
// trace length and reader speeds.
//
// An error from src (io.EOF included) is sticky: every branch receives it
// at the same interval, after all earlier columns. Closing a branch detaches
// it, so it never holds the others back; the last Close closes src when src
// is an io.Closer. Each branch is single-stream state like any Source, but
// distinct branches may be read from distinct goroutines.
//
// n == 1 returns src itself. n must be positive.
func Tee(src Source, n int) []Source {
	if n < 1 {
		panic(fmt.Sprintf("trace: Tee of %d branches", n))
	}
	if n == 1 {
		return []Source{src}
	}
	m := src.Meta()
	t := &tee{src: src, meta: m, open: n}
	t.cond.L = &t.mu
	for k := range t.ring {
		t.ring[k].col = make([]float64, m.Servers)
	}
	t.branches = make([]*teeBranch, n)
	out := make([]Source, n)
	for b := range out {
		t.branches[b] = &teeBranch{t: t}
		out[b] = t.branches[b]
	}
	return out
}

// tee is the state the branches of one Tee share. Every field below mu is
// guarded by it; ring columns are written only by the decoding branch (with
// mu released) and read by the others once ready covers them.
type tee struct {
	src  Source
	meta Meta

	mu   sync.Mutex
	cond sync.Cond
	ring [teeDepth]struct {
		col      []float64
		interval int
	}
	// ready counts the calls of src.NextColumn that returned a column; the
	// column of call k sits in ring[k%teeDepth] until every open branch has
	// read past it.
	ready    int
	decoding bool
	// err, once set, is src's error at call ready: ready stops advancing, so
	// every branch returns err once it has read all earlier columns.
	err      error
	open     int
	branches []*teeBranch
}

// teeBranch is one reader of a tee.
type teeBranch struct {
	t      *tee
	pos    int
	closed bool
}

// Meta reports the shared source's shape.
func (b *teeBranch) Meta() Meta { return b.t.meta }

// NextColumn copies the branch's next column into dst, decoding it from the
// shared source first when no branch has yet.
func (b *teeBranch) NextColumn(dst []float64) (int, error) {
	t := b.t
	if len(dst) != t.meta.Servers {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), t.meta.Servers)
	}
	t.mu.Lock()
	for {
		switch {
		case b.closed:
			t.mu.Unlock()
			return 0, errors.New("trace: read from a closed tee branch")
		case b.pos < t.ready:
			// The slot cannot be overwritten while b.pos still points at
			// it: the decoder never laps the slowest open branch.
			slot := &t.ring[b.pos%teeDepth]
			i := slot.interval
			t.mu.Unlock()
			copy(dst, slot.col)
			t.mu.Lock()
			b.pos++
			t.cond.Broadcast()
			t.mu.Unlock()
			return i, nil
		case t.err != nil:
			err := t.err
			t.mu.Unlock()
			return 0, err
		case t.decoding || t.ready-t.slowest() >= teeDepth:
			t.cond.Wait()
		default:
			k := t.ready
			t.decoding = true
			t.mu.Unlock()
			got, err := t.src.NextColumn(t.ring[k%teeDepth].col)
			t.mu.Lock()
			t.decoding = false
			if err != nil {
				t.err = err
			} else {
				t.ring[k%teeDepth].interval = got
				t.ready++
			}
			t.cond.Broadcast()
		}
	}
}

// slowest returns the lowest read position among the open branches; the
// caller holds mu and is itself an open branch.
func (t *tee) slowest() int {
	lo := t.ready
	for _, b := range t.branches {
		if !b.closed && b.pos < lo {
			lo = b.pos
		}
	}
	return lo
}

// Close detaches the branch; the last branch to close closes the shared
// source if it is an io.Closer. Closing a branch twice is a no-op.
func (b *teeBranch) Close() error {
	t := b.t
	t.mu.Lock()
	if b.closed {
		t.mu.Unlock()
		return nil
	}
	b.closed = true
	t.open--
	last := t.open == 0
	t.cond.Broadcast()
	t.mu.Unlock()
	if c, ok := t.src.(io.Closer); last && ok {
		return c.Close()
	}
	return nil
}
