package fault

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/backoff"
	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/objstore"
)

// apply runs a decision's pre-call behavior under ctx: the fixed
// latency, then the hang. It returns a non-nil error when the call
// must fail instead of reaching the real dependency.
func apply(ctx context.Context, d decision) error {
	if d.latency > 0 {
		if err := backoff.Sleep(ctx, d.latency); err != nil {
			return err
		}
	}
	if d.hang {
		// The black hole: nothing comes back until the caller gives up.
		<-ctx.Done()
		return ctx.Err()
	}
	if d.err {
		return fmt.Errorf("%w", ErrInjected)
	}
	return nil
}

// ObjectClient wraps an objstore.ObjectClient with fault injection:
// latency and hangs before the real call, injected errors instead of
// it, and corrupted payloads after it (Get corrupts what the caller
// reads; Put corrupts what the bucket stores — the torn-write fault
// the object checksum exists to catch).
type ObjectClient struct {
	inner objstore.ObjectClient
	inj   *Injector
}

// WrapObjectClient injects inj's faults around client. A nil injector
// returns client unchanged.
func WrapObjectClient(client objstore.ObjectClient, inj *Injector) objstore.ObjectClient {
	if inj == nil {
		return client
	}
	return &ObjectClient{inner: client, inj: inj}
}

// Name tags the wrapped client so /stats shows the drill.
func (c *ObjectClient) Name() string { return c.inner.Name() + "+fault" }

// Injector exposes the decision stream (for stats).
func (c *ObjectClient) Injector() *Injector { return c.inj }

// Get applies the spec, then reads through. Corruption damages the
// returned bytes, not the stored object.
func (c *ObjectClient) Get(ctx context.Context, key string) ([]byte, error) {
	d := c.inj.decide()
	if err := apply(ctx, d); err != nil {
		return nil, fmt.Errorf("objstore get %s: %w", key, err)
	}
	data, err := c.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	if d.corrupt {
		data = corruptBytes(data)
	}
	return data, nil
}

// Put applies the spec, then writes through. Corruption damages what
// lands in the bucket — later readers must detect it via the object
// checksum and treat it as a miss.
func (c *ObjectClient) Put(ctx context.Context, key string, data []byte) error {
	d := c.inj.decide()
	if err := apply(ctx, d); err != nil {
		return fmt.Errorf("objstore put %s: %w", key, err)
	}
	if d.corrupt {
		data = corruptBytes(data)
	}
	return c.inner.Put(ctx, key, data)
}

// Backend wraps a store.Backend with fault injection. The Backend
// contract turns failures into misses, so injected errors surface as
// misses (and injected hangs as context expiry) — corruption cannot
// apply to an already-decoded table and is ignored here; inject it at
// the ObjectClient or RoundTripper layer instead.
type Backend struct {
	inner store.Backend
	inj   *Injector
}

// WrapBackend injects inj's faults around b. A nil injector returns b
// unchanged.
func WrapBackend(b store.Backend, inj *Injector) store.Backend {
	if inj == nil {
		return b
	}
	return &Backend{inner: b, inj: inj}
}

// Name tags the wrapped backend.
func (b *Backend) Name() string { return b.inner.Name() + "+fault" }

// Get applies the spec; an injected failure is a miss, per the Backend
// contract.
func (b *Backend) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	if err := apply(ctx, b.inj.decide()); err != nil {
		return nil, false
	}
	return b.inner.Get(ctx, k)
}

// Put applies the spec; injected failures surface as Put errors (which
// callers already tolerate).
func (b *Backend) Put(k store.Key, t *result.Table) error {
	if err := apply(context.Background(), b.inj.decide()); err != nil {
		return err
	}
	return b.inner.Put(k, t)
}

// RoundTripper wraps an http.RoundTripper with fault injection, for
// the HTTP-shaped dependency (fleet owner probes, fetches and proxies):
// latency and hangs run under the request's context, injected errors
// replace the round trip, and corruption flips bytes in the response
// body (after reading it in full — the damaged body still terminates).
type RoundTripper struct {
	inner http.RoundTripper
	inj   *Injector
}

// WrapTransport injects inj's faults around rt (nil rt gets
// http.DefaultTransport; nil injector returns rt unchanged).
func WrapTransport(rt http.RoundTripper, inj *Injector) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	if inj == nil {
		return rt
	}
	return &RoundTripper{inner: rt, inj: inj}
}

// RoundTrip applies the spec around the real round trip.
func (f *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := f.inj.decide()
	if err := apply(req.Context(), d); err != nil {
		return nil, fmt.Errorf("fault transport %s: %w", req.URL.Host, err)
	}
	resp, err := f.inner.RoundTrip(req)
	if err != nil || !d.corrupt {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	damaged := corruptBytes(body)
	resp.Body = io.NopCloser(bytes.NewReader(damaged))
	resp.ContentLength = int64(len(damaged))
	resp.Header.Del("Content-Length")
	return resp, nil
}
