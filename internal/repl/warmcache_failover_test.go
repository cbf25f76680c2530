package repl

import (
	"bytes"
	"testing"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
)

// cachedFrame is one clean tokened page a warm client cache held before
// the old leader died.
type cachedFrame struct {
	pid   disk.PageID
	token uint64
	img   []byte
}

// readPage reads pid from h with one OpReadPages request — presenting
// token, as of snapshot snap (0: live) — and returns the walk standing on its
// entry.
func readPage(t *testing.T, h esm.Handler, pid disk.PageID, token, snap uint64) esm.PageAnswers {
	t.Helper()
	entries := esm.AppendPageEntry(nil, uint32(pid), token)
	resp := h.Handle(&esm.Request{Op: esm.OpReadPages, Page: uint32(pid), N: snap, Data: entries})
	if resp.Err != "" {
		t.Fatalf("page %d read: %s", pid, resp.Err)
	}
	a := esm.ReadAnswers(entries, resp.Data)
	if !a.Next() {
		t.Fatalf("page %d read: %v", pid, a.Err())
	}
	return a
}

// fullImage decodes the full image the answer a stands on carries.
func fullImage(t *testing.T, a esm.PageAnswers) []byte {
	t.Helper()
	img := make([]byte, disk.PageSize)
	if a.Kind != esm.PageFull || a.Apply(img) != nil {
		t.Fatalf("page %d: answered %v with kind %d and %d bytes, want its full image", a.Page, a.Answered, a.Kind, len(a.Data))
	}
	return img
}

// TestWarmCacheTokensAcrossFailover: coherence tokens minted by the old
// leader are commit LSNs or its boot epoch; the promoted follower starts an
// empty version table under an epoch of its own — the top bit over its
// durable log end, which holds commits the old leader made after it booted,
// so it equals neither kind. A warm client reconnecting after failover must therefore never get
// a "not modified" answer for its pre-failover tokens — every page
// revalidates by repair, and the repaired bytes must be the committed
// post-update image, not anything older.
func TestWarmCacheTokensAcrossFailover(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	leader := nodes[0].node

	// Session 1 (coherent, warm cache): create the object.
	c1 := esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 64})
	s1, err := core.New(c1, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	write := func(s *core.Store, value string) {
		t.Helper()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		ref, err := s.Root("wc")
		if err != nil {
			cl := s.NewCluster()
			if ref, err = s.Alloc(cl, 72, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.SetRoot("wc", ref); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 72)
		buf[0] = byte(len(value))
		copy(buf[1:], value)
		if err := s.Space().WriteBytes(ref, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	write(s1, "v1")

	// Snapshot session 1's warm cache: clean frames with coherence tokens.
	var frames []cachedFrame
	pool := c1.Pool()
	for i := 0; i < pool.Len(); i++ {
		f := pool.Frame(i)
		if f.Page == disk.InvalidPage || f.Dirty || f.LSN == 0 {
			continue
		}
		frames = append(frames, cachedFrame{
			pid:   f.Page,
			token: f.LSN,
			img:   append([]byte(nil), f.Data...),
		})
	}
	if len(frames) == 0 {
		t.Fatal("warm cache captured no tokened frames; test is vacuous")
	}

	// Session 2 updates the object behind session 1's back. At least one
	// cached page must actually change, or the sweep below proves nothing.
	s2, err := core.Open(esm.NewClient(leader.Transport(), esm.ClientConfig{BufferPages: 64}), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	write(s2, "v2")
	changed := 0
	for _, f := range frames {
		if !bytes.Equal(f.img[8:], fullImage(t, readPage(t, leader, f.pid, 0, 0))[8:]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("update dirtied no cached page; test is vacuous")
	}
	waitConverged(t, nodes)
	kill(nodes[0])

	best, other := nodes[1], nodes[2]
	if other.log.FlushedLSN() > best.log.FlushedLSN() {
		best, other = other, best
	}
	if err := best.node.Campaign(); err != nil {
		best = other
		if err := best.node.Campaign(); err != nil {
			t.Fatalf("campaign: %v", err)
		}
	}

	// Present every pre-failover token to the promoted leader. No token
	// may validate as current, and every repair must reconstruct exactly
	// the image the new leader itself serves as committed: what matters
	// is that the warm cache converges on the new leader's committed
	// state, never on anything older.
	for _, f := range frames {
		full := fullImage(t, readPage(t, best.node, f.pid, 0, 0))
		a := readPage(t, best.node, f.pid, f.token, 0)
		if !a.Stale {
			t.Fatalf("page %d: promoted leader validated a pre-failover token as current", f.pid)
		}
		img := bytes.Clone(f.img)
		if err := a.Apply(img); err != nil {
			t.Fatalf("page %d: bad repair of kind %d: %v", f.pid, a.Kind, err)
		}
		if !bytes.Equal(img[8:], full[8:]) {
			t.Fatalf("page %d: repair after failover does not match the committed image", f.pid)
		}
	}

	// The object itself reads back at its committed value through a fresh
	// coherent session against the new leader.
	d := NewDirector([]Endpoint{
		{ID: "n1", Tr: nodes[0].node.Transport()},
		{ID: "n2", Tr: nodes[1].node.Transport()},
		{ID: "n3", Tr: nodes[2].node.Transport()},
	}, DirectorConfig{})
	if v, err := getValue(t, d, "wc"); err != nil || v != "v2" {
		t.Fatalf("wc after failover = %q, %v; want v2", v, err)
	}
}
