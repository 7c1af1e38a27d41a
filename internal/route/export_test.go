package route

import "repro/internal/geom"

// disconnectsPinsRef is the reference bridge check the drain kernel
// (bridgeScratch.disconnects) must agree with: a whole-bbox BFS from the
// first pin with edge e masked, counting the pins it reaches. Unlike the
// kernel it assumes nothing about the net's connectivity on entry.
func disconnectsPinsRef(ns *netState, e int, horz bool) bool {
	if ns.npins <= 1 {
		return false
	}
	start := -1
	for v, isPin := range ns.pinMask {
		if isPin {
			start = v
			break
		}
	}
	visited := make([]bool, ns.w*ns.h)
	queue := make([]int, 0, ns.w*ns.h)
	visited[start] = true
	queue = append(queue, start)
	seen := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vx, vy := v%ns.w, v/ns.w // local coords
		// Neighbors through alive, unmasked edges.
		try := func(nv int, edgeIdx int, edgeHorz bool) {
			var alive []bool
			if edgeHorz {
				alive = ns.aliveH
			} else {
				alive = ns.aliveV
			}
			if !alive[edgeIdx] || (edgeHorz == horz && edgeIdx == e) {
				return
			}
			if !visited[nv] {
				visited[nv] = true
				if ns.pinMask[nv] {
					seen++
				}
				queue = append(queue, nv)
			}
		}
		if vx > 0 {
			try(v-1, vy*(ns.w-1)+vx-1, true)
		}
		if vx < ns.w-1 {
			try(v+1, vy*(ns.w-1)+vx, true)
		}
		if vy > 0 {
			try(v-ns.w, (vy-1)*ns.w+vx, false)
		}
		if vy < ns.h-1 {
			try(v+ns.w, vy*ns.w+vx, false)
		}
	}
	return seen < ns.npins
}

// bareNet builds the connection-graph part of a netState — bbox, pin mask,
// every edge alive — over a w×h bbox at the origin, with no grid or
// weights. pins must lie inside the bbox; duplicates are deduped.
func bareNet(w, h int, pins []geom.Point) *netState {
	ns := &netState{
		bbox: geom.Rect{MaxX: w - 1, MaxY: h - 1}, w: w, h: h,
		pinMask: make([]bool, w*h),
		aliveH:  make([]bool, (w-1)*h),
		aliveV:  make([]bool, w*(h-1)),
	}
	for _, p := range pins {
		if v := ns.vertex(p.X, p.Y); !ns.pinMask[v] {
			ns.pinMask[v] = true
			ns.npins++
		}
	}
	for i := range ns.aliveH {
		ns.aliveH[i] = true
	}
	for i := range ns.aliveV {
		ns.aliveV[i] = true
	}
	ns.nAlive = len(ns.aliveH) + len(ns.aliveV)
	return ns
}
