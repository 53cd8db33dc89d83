package tcp

import (
	"sync"

	"quiclab/internal/wire"
)

// Per-segment object recycling. A wire.TCPSegment (and its demux
// wrapper) is created by the sender and dies on the receiver once
// process() has consumed it — nothing retains the struct afterwards
// (SACK blocks and ack fields are copied out by value). Segments
// dropped by netem, and segments queued in a connection that closes,
// are left to the garbage collector.

var tcpSegPool = sync.Pool{New: func() any { return new(wire.TCPSegment) }}

// getSegment returns a zeroed segment whose SACK slice keeps its
// previous capacity, so steady-state ack building allocates nothing.
func getSegment() *wire.TCPSegment {
	seg := tcpSegPool.Get().(*wire.TCPSegment)
	*seg = wire.TCPSegment{SACK: seg.SACK[:0]}
	return seg
}

func releaseSegment(seg *wire.TCPSegment) {
	seg.DSACK = nil
	tcpSegPool.Put(seg)
}

// wrapPool recycles the demux wrappers; a wrapper's flight ends inside
// Endpoint.HandlePacket, as soon as its fields are read.
var wrapPool = sync.Pool{New: func() any { return new(segment) }}

// --- Connection record recycling (Endpoint.Reset lifecycle) -------------

// takeConn returns a scrubbed connection record from the endpoint's free
// list, or a fresh one. Recycled records keep their container storage
// (the scoreboard, sets and scratch slices) and their bound timer callbacks;
// everything else was zeroed at retire time, so the struct is
// indistinguishable from a fresh allocation to the protocol machinery.
func (e *Endpoint) takeConn() *Conn {
	if n := len(e.connFree); n > 0 {
		c := e.connFree[n-1]
		e.connFree[n-1] = nil
		e.connFree = e.connFree[:n-1]
		return c
	}
	c := new(Conn)
	// Bind the timer callbacks once per record; they capture only the
	// pointer, which stays valid across recycles.
	c.sendSYNFn = c.sendSYN
	c.onTLPFn = c.onTLP
	c.onRTOFn = c.onRTO
	c.idleAlarmFn = c.onIdleAlarm
	c.flushAckFn = c.flushAck
	c.processNextFn = c.processNext
	return c
}

// retireConn scrubs a dead connection record and pushes it onto the free
// list. Called only from Endpoint.Reset, when the simulator has already
// been wiped — no scheduled event can reference the record any more.
// Queued segments are left to the GC; the record's scoreboard and
// scratch space survive the recycle.
func (e *Endpoint) retireConn(c *Conn) {
	c.sb.reset()
	for i := range c.procQueue {
		c.procQueue[i] = nil
	}
	c.sacked.Clear()
	c.received.Clear()
	*c = Conn{
		sb:            c.sb,
		sacked:        c.sacked,
		received:      c.received,
		retransQ:      c.retransQ[:0],
		procQueue:     c.procQueue[:0],
		sackScratch:   c.sackScratch[:0],
		onConnected:   c.onConnected[:0],
		sendSYNFn:     c.sendSYNFn,
		onTLPFn:       c.onTLPFn,
		onRTOFn:       c.onRTOFn,
		idleAlarmFn:   c.idleAlarmFn,
		flushAckFn:    c.flushAckFn,
		processNextFn: c.processNextFn,
	}
	e.connFree = append(e.connFree, c)
}
