package main

import (
	"sync/atomic"
	"time"

	"tmesh/internal/vnet"
)

// slowCall is the vnet call duration above which a call counts as
// slow. A shortest-path-tree cache hit is a slice lookup (well under a
// microsecond); a miss runs Dijkstra over the 5000-router topology
// (hundreds of microseconds), so slow calls count SPT-cache misses.
const slowCall = 100 * time.Microsecond

// countingNet wraps the vnet.Network a core.Group is given, counting
// and timing every call; its busy time is the recorder's leaf clock.
// It is used in the traced run only.
type countingNet struct {
	net vnet.Network

	calls, slow atomic.Int64
	busy        atomic.Int64 // nanoseconds
}

func (n *countingNet) done(start time.Time) {
	d := time.Since(start)
	n.calls.Add(1)
	n.busy.Add(int64(d))
	if d > slowCall {
		n.slow.Add(1)
	}
}

func (n *countingNet) busyTime() time.Duration { return time.Duration(n.busy.Load()) }

// netCounts is a reading of a countingNet's counters.
type netCounts struct {
	calls, slow int64
	busy        time.Duration
}

// counts reads the counters; nil reads zero.
func (n *countingNet) counts() netCounts {
	if n == nil {
		return netCounts{}
	}
	return netCounts{n.calls.Load(), n.slow.Load(), n.busyTime()}
}

func (c netCounts) sub(o netCounts) netCounts {
	return netCounts{c.calls - o.calls, c.slow - o.slow, c.busy - o.busy}
}

func (c netCounts) add(o netCounts) netCounts {
	return netCounts{c.calls + o.calls, c.slow + o.slow, c.busy + o.busy}
}

func (n *countingNet) NumHosts() int {
	defer n.done(time.Now())
	return n.net.NumHosts()
}

func (n *countingNet) RTT(a, b vnet.HostID) time.Duration {
	defer n.done(time.Now())
	return n.net.RTT(a, b)
}

func (n *countingNet) OneWay(a, b vnet.HostID) time.Duration {
	defer n.done(time.Now())
	return n.net.OneWay(a, b)
}

func (n *countingNet) AccessRTT(h vnet.HostID) time.Duration {
	defer n.done(time.Now())
	return n.net.AccessRTT(h)
}

func (n *countingNet) GatewayRTT(a, b vnet.HostID) time.Duration {
	defer n.done(time.Now())
	return n.net.GatewayRTT(a, b)
}

func (n *countingNet) NumLinks() int {
	defer n.done(time.Now())
	return n.net.NumLinks()
}

func (n *countingNet) PathLinks(a, b vnet.HostID) []vnet.LinkID {
	defer n.done(time.Now())
	return n.net.PathLinks(a, b)
}
