package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"scshare/internal/core"
	"scshare/internal/market"
	"scshare/internal/serve"
	"scshare/internal/spec"
)

// adviseMaxShare is the advise-warm strategy cap: the Fig. 7a spec as the
// serve benchmarks use it.
const adviseMaxShare = 4

// adviseQueueWait bounds how long an advise request may queue for a solve
// slot. The server admits as many solves as there are clients, so under
// this closed loop nothing should ever queue or be shed; the admission
// layer still runs on every request.
const adviseQueueWait = time.Second

// loopback is a server on 127.0.0.1 with a keep-alive client: at most
// maxConns connections (0 = unlimited), idle ones kept up to idle.
type loopback struct {
	url    string
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	hc     *http.Client
}

func startLoopback(h http.Handler, maxConns, idle int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		tr: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: idle,
			MaxConnsPerHost:     maxConns,
			DisableCompression:  true,
		},
	}
	lb.hc = &http.Client{Transport: lb.tr, Timeout: time.Minute}
	go func() {
		defer close(lb.served)
		if err := lb.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: loopback server:", err)
		}
	}()
	return lb, nil
}

// close shuts the server and its connections and waits for Serve to return.
func (lb *loopback) close() {
	lb.tr.CloseIdleConnections()
	lb.hs.Close()
	<-lb.served
}

// post sends one JSON body and reads the whole answer into buf.
func (lb *loopback) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lb.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lb.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// adviseBodies pre-encodes one /v1/advise request per grid price.
func adviseBodies(sp spec.Federation) ([][]byte, error) {
	out := make([][]byte, adviseGridLen)
	for i := range out {
		b, err := json.Marshal(struct {
			spec.Federation
			Price float64 `json:"price"`
		}{sp, advisePrice(i)})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// adviseBench serves advice over loopback to `lanes` closed-loop clients,
// each following its own seeded price walk.
type adviseBench struct {
	seed   uint64
	lanes  int
	sp     spec.Federation
	bodies [][]byte
	srv    *serve.Server
	lb     *loopback
	walks  []*priceWalk
	bufs   []bytes.Buffer
	// seen[lane][grid index] counts each distinct response body.
	seen [][]map[string]*int
}

func newAdviseBench(seed uint64, procs int) bench {
	return &adviseBench{seed: seed, lanes: procs, sp: fig7aSpec(adviseMaxShare)}
}

func (a *adviseBench) setup(ctx context.Context, st *setupTimer) error {
	bodies, err := adviseBodies(a.sp)
	if err != nil {
		return err
	}
	a.bodies = bodies
	a.srv = serve.New(serve.Options{MaxInflight: a.lanes, QueueWait: adviseQueueWait})
	if a.lb, err = startLoopback(a.srv, a.lanes, a.lanes); err != nil {
		return err
	}
	st.pause()
	var buf bytes.Buffer
	for i, body := range a.bodies {
		status, err := a.lb.post(ctx, "/v1/advise", body, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up advise at %v: HTTP %d: %s", advisePrice(i), status, buf.Bytes())
		}
		if i%8 == 7 {
			st.pause()
		}
	}
	a.walks = make([]*priceWalk, a.lanes)
	a.bufs = make([]bytes.Buffer, a.lanes)
	a.seen = make([][]map[string]*int, a.lanes)
	for l := range a.walks {
		a.walks[l] = newPriceWalk(a.seed, l)
		a.seen[l] = make([]map[string]*int, adviseGridLen)
	}
	return nil
}

func (a *adviseBench) op(ctx context.Context, lane, _ int) (int, time.Duration, error) {
	idx := a.walks[lane].next()
	buf := &a.bufs[lane]
	t := time.Now()
	status, err := a.lb.post(ctx, "/v1/advise", a.bodies[idx], buf)
	d := time.Since(t)
	if err != nil {
		return 0, d, err
	}
	if status != http.StatusOK {
		return 0, d, fmt.Errorf("advise: HTTP %d", status)
	}
	m := a.seen[lane][idx]
	if m == nil {
		m = make(map[string]*int)
		a.seen[lane][idx] = m
	}
	if n := m[string(buf.Bytes())]; n != nil {
		*n++
	} else {
		one := 1
		m[buf.String()] = &one
	}
	return 1, d, nil
}

// check re-derives every price's advice in process, on a framework warmed
// the same way but separately, and compares each distinct served body.
func (a *adviseBench) check(ctx context.Context) (int, error) {
	sp := a.sp
	if err := sp.Normalize(); err != nil {
		return 0, err
	}
	fw, err := core.New(sp.Config())
	if err != nil {
		return 0, err
	}
	for i := 0; i < adviseGridLen; i++ {
		if _, err := fw.AdviseAt(ctx, advisePrice(i), nil, market.AlphaUtilitarian); err != nil {
			return 0, err
		}
	}
	failed := 0
	for idx := 0; idx < adviseGridLen; idx++ {
		var want *core.Advice
		for l := range a.seen {
			for body, n := range a.seen[l][idx] {
				if want == nil {
					if want, err = fw.AdviseAt(ctx, advisePrice(idx), nil, market.AlphaUtilitarian); err != nil {
						return 0, err
					}
				}
				if d := adviceMismatch([]byte(body), want); d != "" {
					if failed == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: advise at %v: %s\n", advisePrice(idx), d)
					}
					failed += *n
				}
			}
		}
	}
	return failed, nil
}

func (a *adviseBench) close() {
	if a.lb != nil {
		a.lb.close()
	}
}
