// Package quic implements a gQUIC-like transport over the emulated
// network: multiplexed streams, QUIC-Crypto-style 0-RTT connection
// establishment, ACK frames with ranges and receive timestamps,
// NACK-threshold loss detection with tail loss probes and RTO, Cubic (or
// BBR) congestion control, packet pacing, and connection/stream flow
// control.
//
// The implementation is a clean-room reconstruction of the mechanisms the
// paper's evaluation exercises (see DESIGN.md §2); each config knob below
// corresponds to a parameter the paper calibrated or varied.
package quic

import (
	"fmt"

	"time"

	"quiclab/internal/cc"
	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/profile"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
	"quiclab/internal/wire"
)

// Default protocol constants (gQUIC-era values).
const (
	// DefaultNACKThreshold is the fixed NACK count after which a packet
	// is declared lost (the paper's §5.2 reordering story: packets
	// reordered deeper than this look like losses).
	DefaultNACKThreshold = 3
	// DefaultMaxStreams is gQUIC's default MaxStreamsPerConnection.
	DefaultMaxStreams = 100
	// DefaultStreamRecvWindow and DefaultConnRecvWindow are the
	// post-auto-tune receive windows of a desktop-class endpoint.
	DefaultStreamRecvWindow = 4 << 20
	DefaultConnRecvWindow   = 6 << 20
	// MaxPacketSize is the gQUIC UDP payload size.
	MaxPacketSize = 1350

	// Handshake message sizes (synthetic but realistic).
	inchoateCHLOSize = 500
	rejSize          = 1800
	fullCHLOSize     = 900
	shloSize         = 200

	maxAckRanges  = 32
	ackDelayLimit = 25 * time.Millisecond
	ackEveryN     = 2
	minTLPTimeout = 10 * time.Millisecond
	minRTOTimeout = 200 * time.Millisecond
	maxTLPProbes  = 2
	maxRTOs       = 8 // consecutive unanswered RTOs before giving up
	// maxRTOBackoffDelay is the absolute ceiling on the exponentially
	// backed-off RTO delay: after long outages the sender probes at least
	// this often instead of doubling without bound, so recovery latency
	// after the link returns is bounded.
	maxRTOBackoffDelay = 10 * time.Second

	// Client handshake retransmission: the first CHLO flight is the only
	// data covered by no ack feedback at all, so it gets a dedicated
	// retransmit timer with exponential backoff (1s, 2s, 4s, 8s, 8s) and
	// a retry cap, after which the connection fails with
	// trace.ReasonHandshakeFailure.
	hsRetryBaseTimeout = time.Second
	maxHSRetryShift    = 3
	maxHSRetries       = 5

	// DefaultIdleTimeout tears down connections that receive nothing for
	// this long (gQUIC's default idle_connection_state_lifetime is 30s).
	DefaultIdleTimeout = 30 * time.Second
)

// Config parameterises an endpoint. The zero value gets calibrated
// gQUIC-34 desktop defaults.
type Config struct {
	// CC is the Cubic configuration (paper §4.1 calibration: MACW,
	// N-connection emulation, HyStart, PRR, pacing, ssthresh bug).
	// Ignored when CCAlgo is set.
	CC cc.CubicConfig
	// CCAlgo selects a congestion controller from the registry by name
	// (cc.Algorithms lists them) in its standard configuration,
	// overriding CC; "bbr" is the experimental BBR of Fig 3b. Empty
	// keeps the calibrated Cubic. Callers validate the name (CLIs exit
	// 2 on unknown algorithms); an unknown name here panics.
	CCAlgo string
	// NACKThreshold overrides the fast-retransmit NACK threshold
	// (Fig 10 sweeps this). 0 means DefaultNACKThreshold.
	NACKThreshold int
	// TimeLossDetection replaces the fixed NACK count with a RACK-style
	// rule: a packet is lost only when a later packet was acked AND more
	// than 1.25x srtt has passed since it was sent. This is the
	// "time-based solution" the QUIC team told the authors they were
	// experimenting with (§5.2) — reordering-tolerant without a
	// threshold to tune.
	TimeLossDetection bool
	// AdaptiveNACK raises the NACK threshold whenever a loss turns out
	// to be spurious (the declared-lost packet is later acked),
	// mirroring TCP's RR-TCP/DSACK adaptation.
	AdaptiveNACK bool
	// MaxStreams is the MaxStreamsPerConnection limit. 0 means
	// DefaultMaxStreams.
	MaxStreams int
	// StreamRecvWindow / ConnRecvWindow are this endpoint's advertised
	// flow-control windows. 0 means the desktop defaults. Mobile device
	// profiles shrink these (memory-constrained clients).
	StreamRecvWindow uint64
	ConnRecvWindow   uint64
	// Disable0RTT makes clients run a full handshake on every
	// connection (Fig 7 ablation).
	Disable0RTT bool
	// No0RTTServer makes this server hand out non-cacheable configs, so
	// clients can never 0-RTT to it — the paper's unoptimised QUIC proxy
	// behaviour (§5.5, Fig 18).
	No0RTTServer bool
	// ProcDelay is the per-received-packet userspace processing cost
	// (decryption + delivery). This is the paper's mobile mechanism:
	// QUIC processes packets in the application, so slow clients drain
	// slowly, stall flow-control, and push the server into
	// ApplicationLimited (Fig 12/13).
	ProcDelay time.Duration
	// StreamTouchDelay is an additional per-packet processing cost per
	// active stream: userspace per-stream bookkeeping that grows with
	// multiplexing width. Because QUIC acks are generated in userspace
	// *after* this processing (unlike TCP's kernel acks), heavy
	// multiplexing inflates QUIC's RTT samples and triggers HyStart's
	// delay-increase exit — the paper's root cause for QUIC's poor
	// performance with large numbers of small objects (§5.2).
	StreamTouchDelay time.Duration
	// HandshakeCryptoDelay is a one-time client-side crypto setup cost.
	HandshakeCryptoDelay time.Duration
	// IdleTimeout closes connections that receive no packets for this
	// long (classified trace.ReasonIdleTimeout). 0 selects
	// DefaultIdleTimeout; negative disables idle teardown.
	IdleTimeout time.Duration
	// Tracer records CC state transitions and counters for this
	// endpoint's connections. May be nil.
	Tracer *trace.Recorder
	// Metrics receives sampled time-series (cwnd, srtt, bytes in
	// flight, flow-control windows) for this endpoint's connections.
	// May be nil — disabled metrics cost one branch per sample site.
	Metrics *metrics.Collector
	// WireEncode serializes every sent packet into a pooled buffer that
	// rides the emulated network alongside the structured payload; the
	// receiver decodes and verifies the image before releasing the
	// buffer (see DESIGN.md §10). The structured payload remains the
	// source of truth — the wire image is lossy (ack delay truncates to
	// microseconds) — so golden runs keep this off.
	WireEncode bool
	// Profile attaches a stall-attribution profiler to every connection
	// (see internal/profile): each instant of a connection's lifetime is
	// classified into one exclusive state, and the endpoint exposes the
	// finished budgets via Budgets. Passive — never schedules events or
	// touches the RNG — and zero-alloc per packet when off.
	Profile bool
}

func (c Config) withDefaults() Config {
	if c.CC.MSS == 0 {
		c.CC = cc.DefaultQUICConfig()
		c.CC.MSS = MaxPacketSize
	}
	if c.NACKThreshold == 0 {
		c.NACKThreshold = DefaultNACKThreshold
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = DefaultMaxStreams
	}
	if c.StreamRecvWindow == 0 {
		c.StreamRecvWindow = DefaultStreamRecvWindow
	}
	if c.ConnRecvWindow == 0 {
		c.ConnRecvWindow = DefaultConnRecvWindow
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	return c
}

// Endpoint is a QUIC endpoint attached to an emulated network address. A
// client endpoint dials; a server endpoint listens. The endpoint holds
// the client's 0-RTT session cache (cached server configs), which the
// paper deliberately did not clear between runs.
type Endpoint struct {
	sim  *sim.Simulator
	net  *netem.Network
	addr netem.Addr
	cfg  Config

	conns      map[uint64]*Conn
	nextConnID uint64
	accept     func(*Conn)

	// graveyard holds closed connections until the next Reset; connFree
	// is the per-endpoint free list newConn draws from. Recycling happens
	// only at Reset — between simulation runs — never at Close, because a
	// closed connection's bound callbacks may still sit in the event
	// queue and must keep seeing the closed state they were armed against.
	graveyard []*Conn
	connFree  []*Conn

	// sessionCache: server addr -> have server config (enables 0-RTT).
	sessionCache map[netem.Addr]bool

	// profilers holds each connection's stall profiler in creation
	// order when cfg.Profile is set (budgets must come out in a
	// deterministic order regardless of map iteration).
	profilers []*profile.Profiler
}

// NewEndpoint creates an endpoint and attaches it to the network.
func NewEndpoint(nw *netem.Network, addr netem.Addr, cfg Config) *Endpoint {
	e := &Endpoint{
		sim:          nw.Sim(),
		net:          nw,
		addr:         addr,
		cfg:          cfg.withDefaults(),
		conns:        make(map[uint64]*Conn),
		nextConnID:   uint64(addr)<<32 + 1,
		sessionCache: make(map[netem.Addr]bool),
	}
	nw.Attach(addr, e)
	return e
}

// Addr returns the endpoint's network address.
func (e *Endpoint) Addr() netem.Addr { return e.addr }

// Sim returns the simulator the endpoint runs on.
func (e *Endpoint) Sim() *sim.Simulator { return e.sim }

// Reset returns the endpoint to the state NewEndpoint(nw, addr, cfg)
// would produce, recycling every connection record (live and graveyard)
// onto the endpoint's free list. The network and simulator are expected
// to have been Reset already — no events referencing the old run may
// remain — and the endpoint re-attaches itself to the (cleared) network.
func (e *Endpoint) Reset(cfg Config) {
	for _, c := range e.conns {
		e.retireConn(c)
	}
	clear(e.conns)
	for i, c := range e.graveyard {
		e.retireConn(c)
		e.graveyard[i] = nil
	}
	e.graveyard = e.graveyard[:0]
	e.cfg = cfg.withDefaults()
	e.nextConnID = uint64(e.addr)<<32 + 1
	e.accept = nil
	clear(e.sessionCache)
	for i := range e.profilers {
		e.profilers[i] = nil
	}
	e.profilers = e.profilers[:0]
	e.net.Attach(e.addr, e)
}

// Budgets finalizes any still-open profilers at virtual time end and
// returns the per-connection stall budgets in connection-creation
// order. Returns nil unless the endpoint was configured with Profile.
func (e *Endpoint) Budgets(end time.Duration) []profile.Budget {
	if len(e.profilers) == 0 {
		return nil
	}
	out := make([]profile.Budget, len(e.profilers))
	for i, p := range e.profilers {
		p.Finish(end)
		out[i] = p.Budget()
	}
	return out
}

// Listen registers the server-side accept callback, invoked when a new
// connection completes its handshake.
func (e *Endpoint) Listen(accept func(*Conn)) { e.accept = accept }

// ClearSessionCache drops cached server configs, forcing the next Dial to
// run a full handshake.
func (e *Endpoint) ClearSessionCache() {
	e.sessionCache = make(map[netem.Addr]bool)
}

// Has0RTT reports whether a Dial to remote would use 0-RTT.
func (e *Endpoint) Has0RTT(remote netem.Addr) bool {
	return !e.cfg.Disable0RTT && e.sessionCache[remote]
}

// Dial opens a connection to the server at remote. If the endpoint has a
// cached server config (and 0-RTT isn't disabled), stream data may be
// sent immediately (0-RTT); otherwise the connection runs the inchoate
// CHLO -> REJ -> full CHLO exchange first.
func (e *Endpoint) Dial(remote netem.Addr) *Conn {
	id := e.nextConnID
	e.nextConnID++
	c := newConn(e, id, remote, true)
	e.conns[id] = c
	c.startClientHandshake()
	return c
}

// HandlePacket implements netem.Handler.
func (e *Endpoint) HandlePacket(pkt *netem.Packet) {
	pp, ok := pkt.Payload.(*packet)
	if !ok {
		return
	}
	if w := pkt.TakeWire(); w != nil {
		verifyWire(w, pp)
		w.Release()
	}
	c, ok := e.conns[pp.connID]
	if !ok {
		if e.accept == nil {
			return // not listening; drop
		}
		// A close notice for a connection we already dropped must not
		// resurrect it as a ghost connection.
		for _, f := range pp.frames {
			if f.Type() == wire.FrameConnectionClose {
				return
			}
		}
		c = newConn(e, pp.connID, pkt.Src, false)
		e.conns[pp.connID] = c
		// Fire accept before processing so the application can register
		// OnStream ahead of any (possibly 0-RTT) stream frames.
		e.accept(c)
	}
	c.receive(pp)
}

// verifyWire decodes a received packet's pooled wire image and checks it
// against the structured payload. A mismatch means the encoder and the
// simulator's bookkeeping disagree — a programming error, so it panics.
func verifyWire(w *netem.PacketBuf, pp *packet) {
	if len(w.B) != pp.size {
		panic(fmt.Sprintf("quic: wire image is %d bytes, packet size %d", len(w.B), pp.size))
	}
	dec, err := wire.DecodeQUICPacket(w.B)
	if err != nil {
		panic("quic: wire image does not decode: " + err.Error())
	}
	if dec.ConnID != pp.connID || dec.PacketNumber != pp.pn || len(dec.Frames) != len(pp.frames) {
		panic(fmt.Sprintf("quic: wire image decoded to conn=%d pn=%d frames=%d, want conn=%d pn=%d frames=%d",
			dec.ConnID, dec.PacketNumber, len(dec.Frames), pp.connID, pp.pn, len(pp.frames)))
	}
}
