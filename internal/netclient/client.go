// Package netclient is the pooled, pipelining client for the wire protocol.
// Many requests can be in flight per connection; responses are matched by
// request ID as they arrive, in any order. DoRetry layers capped, jittered
// exponential backoff over the typed retryable statuses, mirroring the
// in-process submitWithRetry discipline across the network boundary.
package netclient

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nstore/internal/core"
	"nstore/internal/wire"
)

// Client errors. ErrConnDropped carries the retryable tag: the transport
// failed, not the transaction — but note a dropped connection is AMBIGUOUS
// (the request may have committed before the cut). Retrying is only safe
// for idempotent schedules, or when the caller resolves the ambiguity
// (e.g. a unique-key insert treating StatusKeyExists on a retry as its own
// earlier ack).
var (
	ErrConnDropped = core.Retryable(errors.New("netclient: connection dropped"))
	ErrTimeout     = core.Retryable(errors.New("netclient: request timed out"))
	ErrClosed      = errors.New("netclient: client closed")

	// ErrUnavailable marks an endpoint as gone, not glitching: MaxRedials
	// consecutive dials failed without a single success. Deliberately NOT
	// tagged retryable — DoRetry gives up immediately so a dead node costs
	// one error, not a full backoff ladder. The next Do still attempts a
	// dial, so an endpoint that does come back is rediscovered.
	ErrUnavailable = errors.New("netclient: endpoint unavailable")
)

// Config parameterizes a Client.
type Config struct {
	// Conns is the connection pool size (default 1). Requests round-robin
	// over the pool; each connection pipelines independently.
	Conns int
	// Timeout bounds one attempt from send to matched response (default 10s).
	Timeout time.Duration
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RetryMax caps DoRetry attempts (default 8).
	RetryMax int
	// RetryBase and RetryCap shape DoRetry's exponential backoff (defaults
	// 500µs and 50ms); the sleep is jittered to d/2 + rand(d/2).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetryOnDrop makes DoRetry also retry transport failures (dropped
	// connections, timeouts). Ambiguous — see ErrConnDropped. Defaults
	// true; set NoRetryOnDrop to disable.
	NoRetryOnDrop bool
	// MaxRedials caps consecutive failed dials per connection before errors
	// flip from retryable ErrConnDropped to terminal ErrUnavailable
	// (default 5). A successful dial resets the count.
	MaxRedials int
	// Seed seeds the backoff jitter so a soak replays.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Microsecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 50 * time.Millisecond
	}
	if c.MaxRedials <= 0 {
		c.MaxRedials = 5
	}
	return c
}

// Client is a pooled wire-protocol client. Safe for concurrent use.
type Client struct {
	addr string
	cfg  Config

	conns []*cconn
	rr    atomic.Uint64
	ids   atomic.Uint64

	jmu sync.Mutex
	rng *rand.Rand

	closed atomic.Bool
}

// result delivers a matched response or the connection's fate to a waiter.
type result struct {
	resp *wire.Response
	err  error
}

// cconn is one pooled connection with its own pipeline state. Connections
// dial lazily and redial lazily after a drop.
type cconn struct {
	cl *Client

	mu        sync.Mutex
	c         net.Conn
	gen       uint64 // bumped per successful dial, so a stale reader can't kill its successor
	dialFails int    // consecutive failed dials; at MaxRedials errors become ErrUnavailable
	pending   map[uint64]chan result
}

// New creates a client for addr. No connection is made until the first
// request.
func New(addr string, cfg Config) *Client {
	cfg = cfg.withDefaults()
	cl := &Client{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	cl.conns = make([]*cconn, cfg.Conns)
	for i := range cl.conns {
		cl.conns[i] = &cconn{cl: cl, pending: make(map[uint64]chan result)}
	}
	return cl
}

// Close severs every pooled connection; waiting requests fail with
// ErrConnDropped, later requests with ErrClosed.
func (cl *Client) Close() error {
	if cl.closed.Swap(true) {
		return nil
	}
	for _, cc := range cl.conns {
		cc.mu.Lock()
		if cc.c != nil {
			cc.c.Close()
		}
		cc.mu.Unlock()
	}
	return nil
}

// Do sends one request and waits for its matched response. The request's ID
// is assigned by the client. A non-OK status is returned as a response, not
// an error; errors mean the transport failed (ErrConnDropped, ErrTimeout)
// or the request never went out.
func (cl *Client) Do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	req.ID = cl.ids.Add(1)
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	cc := cl.conns[cl.rr.Add(1)%uint64(len(cl.conns))]
	ch, err := cc.send(req.ID, payload)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(cl.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		cc.forget(req.ID)
		return nil, ctx.Err()
	case <-timer.C:
		// A response this late means the connection is wedged (or the
		// server is), not merely slow: kill it so the pipeline resets.
		cc.forget(req.ID)
		cc.kill(nil)
		return nil, ErrTimeout
	}
}

// DoRetry is Do plus the retry discipline: retryable statuses (Overloaded,
// Recovering, Retryable) and — unless NoRetryOnDrop — transport failures
// are retried with capped jittered backoff. The final response is returned
// whatever its status; the error is non-nil only if every attempt failed at
// the transport.
func (cl *Client) DoRetry(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	var lastErr error
	for attempt := 0; attempt < cl.cfg.RetryMax; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(cl.backoff(attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		resp, err := cl.Do(ctx, req)
		switch {
		case err == nil && !resp.Status.Retryable():
			return resp, nil
		case err == nil:
			lastErr = &wire.StatusError{Status: resp.Status, Msg: resp.Msg}
		case errors.Is(err, ErrClosed) || errors.Is(err, ErrUnavailable) || errors.Is(err, ctx.Err()):
			return nil, err
		case cl.cfg.NoRetryOnDrop:
			return nil, err
		default:
			lastErr = err
		}
	}
	return nil, fmt.Errorf("netclient: %d attempts exhausted: %w", cl.cfg.RetryMax, lastErr)
}

func (cl *Client) backoff(attempt int) time.Duration {
	d := cl.cfg.RetryBase << (attempt - 1)
	if d > cl.cfg.RetryCap || d <= 0 {
		d = cl.cfg.RetryCap
	}
	cl.jmu.Lock()
	j := time.Duration(cl.rng.Int63n(int64(d/2) + 1))
	cl.jmu.Unlock()
	return d/2 + j
}

// send registers the request and writes its frame, dialing if necessary.
func (cc *cconn) send(id uint64, payload []byte) (chan result, error) {
	frame := wire.AppendFrame(make([]byte, 0, len(payload)+9), payload)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.c == nil {
		if err := cc.dialLocked(); err != nil {
			return nil, err
		}
	}
	ch := make(chan result, 1)
	cc.pending[id] = ch
	cc.c.SetWriteDeadline(time.Now().Add(cc.cl.cfg.Timeout))
	if _, err := cc.c.Write(frame); err != nil {
		cc.failLocked(err)
		return nil, fmt.Errorf("%w: %v", ErrConnDropped, err)
	}
	return ch, nil
}

func (cc *cconn) dialLocked() error {
	if cc.cl.closed.Load() {
		return ErrClosed
	}
	c, err := net.DialTimeout("tcp", cc.cl.addr, cc.cl.cfg.DialTimeout)
	if err != nil {
		cc.dialFails++
		if cc.dialFails >= cc.cl.cfg.MaxRedials {
			return fmt.Errorf("%w: %d consecutive dial failures to %s: %v",
				ErrUnavailable, cc.dialFails, cc.cl.addr, err)
		}
		return fmt.Errorf("%w: %v", ErrConnDropped, err)
	}
	cc.c = c
	cc.gen++
	cc.dialFails = 0
	go cc.read(c, cc.gen)
	return nil
}

// read is the connection's demultiplexer: frames in, pending channels out.
// On any error it fails every request still in flight on this generation.
func (cc *cconn) read(c net.Conn, gen uint64) {
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			cc.mu.Lock()
			cc.failIfGenLocked(gen, err)
			cc.mu.Unlock()
			c.Close()
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			cc.mu.Lock()
			cc.failIfGenLocked(gen, err)
			cc.mu.Unlock()
			c.Close()
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.mu.Unlock()
		if ok {
			ch <- result{resp: resp}
		}
	}
}

// failLocked fails every pending request and drops the connection so the
// next request redials.
func (cc *cconn) failLocked(cause error) {
	err := ErrConnDropped
	if cause != nil {
		err = fmt.Errorf("%w: %v", ErrConnDropped, cause)
	}
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		ch <- result{err: err}
	}
	if cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
}

// failIfGenLocked is failLocked guarded by generation: a reader that
// outlived its connection must not tear down the redialed one.
func (cc *cconn) failIfGenLocked(gen uint64, cause error) {
	if cc.gen != gen {
		return
	}
	cc.failLocked(cause)
}

func (cc *cconn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// kill severs the connection (timeout path); pending requests fail.
func (cc *cconn) kill(cause error) {
	cc.mu.Lock()
	cc.failLocked(cause)
	cc.mu.Unlock()
}
