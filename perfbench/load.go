package main

import (
	"bytes"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reply is what the load loop keeps of one /allocate exchange. The
// body itself is kept only when the caller asks (keep), so a long
// window holds a few numbers per request, not megabytes of assembly.
type reply struct {
	id      int           // index into the distinct request bodies
	at      time.Duration // completion, from the start of the window
	lat     time.Duration
	status  int // 0 = transport error
	crc     uint32
	hits    int
	misses  int
	total   float64 // Result.Overhead.Total
	body    []byte
	badTail bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// drive sends bodies[seq[k]] for k = 0, 1, ... as a closed loop over
// conns connections: each connection sends its next request only once
// the previous reply is read. It stops claiming requests when seq is
// exhausted, or once the deadline has passed and at least minOps
// requests were claimed; a zero deadline never passes. Every claimed
// request completes, so the replies are exactly seq's prefix. The
// window is first send to last reply.
func drive(client *http.Client, url string, bodies [][]byte, seq []int, conns int,
	deadline time.Time, minOps int, keep func(k int) bool) ([]reply, time.Duration) {
	replies := make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The stop test comes before the claim, so every
				// claimed index is sent and the replies stay a prefix.
				if !deadline.IsZero() && int(next.Load()) >= minOps && time.Now().After(deadline) {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(seq) {
					return
				}
				replies[k] = send(client, url, bodies, seq[k], keep != nil && keep(k))
				replies[k].at = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	return replies[:min(int(next.Load()), len(seq))], wall
}

// send performs one request and parses what the checks need from the
// end of the reply: the Result's overhead total and the cache counts.
// The CRC covers the Result bytes only, so a hit and a miss of the same
// request have equal checksums.
func send(client *http.Client, url string, bodies [][]byte, id int, keepBody bool) reply {
	r := reply{id: id}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[id]))
	if err != nil {
		r.lat = time.Since(t0)
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t0)
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		return r
	}
	if keepBody {
		r.body = body
	}
	res, hits, misses, total, ok := splitReply(body)
	r.badTail = !ok
	r.crc = crc32.Checksum(res, castagnoli)
	r.hits, r.misses, r.total = hits, misses, total
	return r
}

// splitReply takes a server.Response body apart without decoding the
// whole document: it returns the raw "result" value, the cache counts
// and the overhead total, which the deterministic encoder always writes
// in this order at the end of the body.
func splitReply(body []byte) (result []byte, hits, misses int, total float64, ok bool) {
	const head = `{"result":`
	i := bytes.LastIndex(body, []byte(`,"cacheHits":`))
	j := bytes.LastIndex(body, []byte(`,"cacheMisses":`))
	t := bytes.LastIndex(body[:max(i, 0)], []byte(`"total":`))
	if !bytes.HasPrefix(body, []byte(head)) || i < 0 || j < i || t < 0 {
		return nil, 0, 0, 0, false
	}
	result = body[len(head):i]
	var err1, err2, err3 error
	hits, err1 = strconv.Atoi(string(body[i+len(`,"cacheHits":`) : j]))
	misses, err2 = strconv.Atoi(string(bytes.TrimRight(body[j+len(`,"cacheMisses":`):], "}\n")))
	end := bytes.IndexByte(body[t:i], '}')
	if end < 0 {
		return nil, 0, 0, 0, false
	}
	total, err3 = strconv.ParseFloat(string(body[t+len(`"total":`):t+end]), 64)
	return result, hits, misses, total, err1 == nil && err2 == nil && err3 == nil
}
