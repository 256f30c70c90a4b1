package icn

import "math/rand"

// Mesh is a W×H 2D mesh with XY dimension-order routing (the ServerClass
// baseline's ICN). Every router is an endpoint.
type Mesh struct {
	w, h int
	p    LinkParams
	// out[id][dir] is router id's outgoing link toward +x, -x, +y, -y
	// (nil on the mesh edge).
	out [][4]*Link
	all []*Link
}

// Mesh link directions, the second index of Mesh.out.
const (
	east = iota
	west
	south
	north
)

// NewMesh builds a W×H mesh.
func NewMesh(w, h int, p LinkParams) *Mesh {
	if w <= 0 || h <= 0 {
		panic("icn: mesh dimensions must be positive")
	}
	m := &Mesh{w: w, h: h, p: p, out: make([][4]*Link, w*h)}
	add := func(a, b, dir int) {
		l := newLink(a, b, p)
		m.out[a][dir] = l
		m.all = append(m.all, l)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				add(id, id+1, east)
				add(id+1, id, west)
			}
			if y+1 < h {
				add(id, id+w, south)
				add(id+w, id, north)
			}
		}
	}
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// NumEndpoints implements Topology.
func (m *Mesh) NumEndpoints() int { return m.w * m.h }

// Links implements Topology.
func (m *Mesh) Links() []*Link { return m.all }

// MaxHops implements Topology.
func (m *Mesh) MaxHops() int { return (m.w - 1) + (m.h - 1) }

// AppendPath implements Topology with XY routing: move along X to the
// destination column, then along Y.
func (m *Mesh) AppendPath(buf []*Link, src, dst int, _ *rand.Rand) []*Link {
	n := m.w * m.h
	if src < 0 || dst < 0 || src >= n || dst >= n {
		panic(pathError("mesh", src, dst, n))
	}
	id := src
	dx, dy := dst%m.w, dst/m.w
	for x := src % m.w; x != dx; {
		if dx > x {
			buf = append(buf, m.out[id][east])
			x, id = x+1, id+1
		} else {
			buf = append(buf, m.out[id][west])
			x, id = x-1, id-1
		}
	}
	for y := src / m.w; y != dy; {
		if dy > y {
			buf = append(buf, m.out[id][south])
			y, id = y+1, id+m.w
		} else {
			buf = append(buf, m.out[id][north])
			y, id = y-1, id-m.w
		}
	}
	return buf
}

var _ Topology = (*Mesh)(nil)

// Crossbar is an idealized single-hop full crossbar: every endpoint pair is
// joined by a dedicated link. It serves as a contention-light reference
// topology in tests and ablations (and as the intra-village fabric, whose
// geometry the paper does not model beyond the shared L2 latency).
type Crossbar struct {
	n     int
	p     LinkParams
	links []*Link // links[src*n+dst]; nil on the diagonal
	all   []*Link
}

// NewCrossbar builds an n-endpoint crossbar.
func NewCrossbar(n int, p LinkParams) *Crossbar {
	if n <= 0 {
		panic("icn: crossbar size must be positive")
	}
	c := &Crossbar{n: n, p: p, links: make([]*Link, n*n)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			l := newLink(a, b, p)
			c.links[a*n+b] = l
			c.all = append(c.all, l)
		}
	}
	return c
}

// Name implements Topology.
func (c *Crossbar) Name() string { return "crossbar" }

// NumEndpoints implements Topology.
func (c *Crossbar) NumEndpoints() int { return c.n }

// Links implements Topology.
func (c *Crossbar) Links() []*Link { return c.all }

// MaxHops implements Topology.
func (c *Crossbar) MaxHops() int { return 1 }

// AppendPath implements Topology.
func (c *Crossbar) AppendPath(buf []*Link, src, dst int, _ *rand.Rand) []*Link {
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n {
		panic(pathError("crossbar", src, dst, c.n))
	}
	if src == dst {
		return buf
	}
	return append(buf, c.links[src*c.n+dst])
}

var _ Topology = (*Crossbar)(nil)
