package layers

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/proto"
)

// discard is a stream whose writes vanish and whose reads end.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Read([]byte) (int, error)    { return 0, io.EOF }

// hotFrames builds the two messages that travel once per invocation,
// shaped like the no-op workload's.
func hotFrames() (*core.InvocationSpec, *core.Result, error) {
	args, err := pickle.Marshal(minipy.NewTuple(minipy.Int(1234567890123)))
	if err != nil {
		return nil, nil, err
	}
	value, err := pickle.Marshal(minipy.Int(1234567890123))
	if err != nil {
		return nil, nil, err
	}
	inv := &core.InvocationSpec{ID: 4711, Library: "dispatch", Function: "noop", Args: args}
	res := &core.Result{ID: 4711, Ok: true, Value: value, Metrics: core.InvocationMetrics{
		SetupTime: 1e-6, ExecTime: 2e-6, LibraryInstance: "dispatch@w017",
	}}
	return inv, res, nil
}

// body encodes v as one frame and returns the frame's body as a
// receiver would see it.
func body(t proto.MsgType, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := proto.NewConn(&buf).Send(t, v); err != nil {
		return nil, err
	}
	_, raw, err := proto.NewConn(&buf).Recv()
	return raw, err
}

// protoCodec: encoding and decoding the two hot messages, without a
// wire (frames are buffered and flushed into nothing).
func (s *suite) protoCodec() error {
	inv, res, err := hotFrames()
	if err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	conn := proto.NewConn(discard{})
	encode := func(t proto.MsgType, v any) func() {
		n := 0
		return func() {
			note(conn.Buffer(t, v))
			if n++; n%64 == 0 {
				note(conn.Flush())
			}
		}
	}
	s.out["proto.encode_invoke_ns"] = s.perCall("proto.encode_invoke", 50000, encode(proto.MsgInvoke, inv))
	s.out["proto.encode_result_ns"] = s.perCall("proto.encode_result", 50000, encode(proto.MsgResult, res))

	invBody, err := body(proto.MsgInvoke, inv)
	if err != nil {
		return err
	}
	resBody, err := body(proto.MsgResult, res)
	if err != nil {
		return err
	}
	in := &proto.Interner{}
	s.out["proto.decode_invoke_ns"] = s.perCall("proto.decode_invoke", 50000, func() {
		got, err := proto.DecodeInvocationInterned(invBody, in)
		note(err)
		if got.ID != inv.ID {
			note(fmt.Errorf("decoded invocation id %d, want %d", got.ID, inv.ID))
		}
	})
	s.out["proto.decode_result_ns"] = s.perCall("proto.decode_result", 50000, func() {
		got, err := proto.DecodeResultInterned(resBody, in)
		note(err)
		if got.ID != res.ID || !got.Ok {
			note(fmt.Errorf("decoded result %d ok=%v, want %d ok", got.ID, got.Ok, res.ID))
		}
	})
	return failed
}

// sink accepts one loopback connection and hands it to serve.
func sink(serve func(net.Conn)) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		serve(nc)
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }, nil
}

// protoWire: what a flush costs per frame over loopback TCP when it
// carries one frame and when it carries 64, and how fast a bulk frame
// of BlobBytes moves.
func (s *suite) protoWire() error {
	inv, _, err := hotFrames()
	if err != nil {
		return err
	}
	for _, burst := range []int{1, 64} {
		addr, stop, err := sink(func(nc net.Conn) { _, _ = io.Copy(io.Discard, nc) })
		if err != nil {
			return err
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			stop()
			return err
		}
		conn := proto.NewConn(nc)
		flushes := s.n(6400 / burst)
		name := fmt.Sprintf("proto.flush_%d", burst)
		ns, err := s.timed(name, reps, func() (int, int64, error) {
			var inFlush int64
			for f := 0; f < flushes; f++ {
				for i := 0; i < burst; i++ {
					if err := conn.Buffer(proto.MsgInvoke, inv); err != nil {
						return 0, 0, err
					}
				}
				t0 := s.clock.Now()
				if err := conn.Flush(); err != nil {
					return 0, 0, err
				}
				inFlush += s.clock.Now() - t0
			}
			return flushes * burst, inFlush, nil
		})
		nc.Close()
		stop()
		if err != nil {
			return err
		}
		s.out[fmt.Sprintf("proto.flush_ns_per_frame_%d", burst)] = ns
	}

	// Bulk: the receiver reads whole frames, as a worker does, and
	// acknowledges each round so that the clock stops when the bytes
	// have arrived, not when they were queued.
	frames := s.n(20)
	payload := make([]byte, BlobBytes)
	rand.New(rand.NewSource(1)).Read(payload)
	ack := make(chan error, 1)
	addr, stop, err := sink(func(nc net.Conn) {
		conn := proto.NewConn(nc)
		for {
			for i := 0; i < frames; i++ {
				if _, _, err := conn.Recv(); err != nil {
					if err != io.EOF {
						select {
						case ack <- err:
						default:
						}
					}
					return
				}
			}
			ack <- nil
		}
	})
	if err != nil {
		return err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		stop()
		return err
	}
	conn := proto.NewConn(nc)
	hdr := proto.PutFileHdr{File: proto.FileHdr{ID: "probe", Name: "blob", LogicalSize: BlobBytes}}
	ns, err := s.timed("proto.bulk_send", reps, func() (int, int64, error) {
		for i := 0; i < frames; i++ {
			if err := conn.SendBulk(proto.MsgPutFileBulk, hdr, payload); err != nil {
				return 0, 0, err
			}
		}
		return frames, 0, <-ack
	})
	nc.Close()
	stop()
	if err != nil {
		return err
	}
	s.out["proto.bulk_send_mb_s"] = float64(BlobBytes) / 1e6 / (ns / 1e9)
	return nil
}

// blobs makes n distinct objects of BlobBytes.
func blobs(n int, seed int64) []*content.Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*content.Object, n)
	for i := range out {
		data := make([]byte, BlobBytes)
		rng.Read(data)
		out[i] = content.NewBlob(fmt.Sprintf("blob-%d", i), data)
	}
	return out
}

// dataplane: the worker's staging layer and the cache under it — a
// resolve that hits, a put, a worker-to-worker fetch of BlobBytes, and
// the content cache's own put and get.
func (s *suite) dataplane() error {
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	count := s.n(20)
	objs := blobs(count, 2)

	// Serving plane: holds every blob, answers peers on loopback.
	server := dataplane.New(dataplane.Config{Cache: content.NewCache(0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		server.Serve(ln)
	}()
	defer func() {
		ln.Close()
		server.Close()
		server.Wait()
		<-served
	}()

	// put: a fresh plane per repetition, so every Put really inserts.
	ns, err := s.timed("dataplane.put", reps, func() (int, int64, error) {
		p := dataplane.New(dataplane.Config{Cache: content.NewCache(0)})
		defer p.Close()
		for _, o := range objs {
			if err := p.Put(o, false); err != nil {
				return 0, 0, err
			}
		}
		return len(objs), 0, nil
	})
	if err != nil {
		return err
	}
	s.out["dataplane.put_mb_s"] = float64(BlobBytes) / 1e6 / (ns / 1e9)
	for _, o := range objs {
		note(server.Put(o, false))
	}

	hit := objs[0].ID
	s.out["dataplane.pin_resolve_hit_ns"] = s.perCall("dataplane.pin_resolve_hit", 20000, func() {
		_, err := server.PinResolve(hit)
		note(err)
		note(server.Unpin(hit))
	})

	// fetch: a fresh client plane per repetition pulls every blob from
	// the server, one at a time.
	ns, err = s.timed("dataplane.fetch_peer", reps, func() (int, int64, error) {
		client := dataplane.New(dataplane.Config{Cache: content.NewCache(0)})
		defer func() {
			client.Close()
			client.Wait()
		}()
		done := make(chan error, 1)
		for _, o := range objs {
			client.Fetch(dataplane.Request{ID: o.ID, Addr: ln.Addr().String()}, func(err error) { done <- err })
			if err := <-done; err != nil {
				return 0, 0, err
			}
		}
		return len(objs), 0, nil
	})
	if err != nil {
		return err
	}
	s.out["dataplane.fetch_peer_mb_s"] = float64(BlobBytes) / 1e6 / (ns / 1e9)

	// content.Cache with small objects: the cost without the bytes.
	small := make([]*content.Object, 1024)
	for i := range small {
		small[i] = content.NewBlob(fmt.Sprintf("s%d", i), []byte(fmt.Sprintf("object-%d", i)))
	}
	var cache *content.Cache
	i := 0
	s.out["content.cache_put_ns"] = s.perCall("content.cache_put", 20000, func() {
		if i%len(small) == 0 {
			cache = content.NewCache(0)
		}
		note(cache.Put(small[i%len(small)]))
		i++
	})
	cache = content.NewCache(0)
	for _, o := range small {
		note(cache.Put(o))
	}
	s.out["content.cache_get_ns"] = s.perCall("content.cache_get", 20000, func() {
		if _, ok := cache.Get(small[i%len(small)].ID); !ok {
			note(fmt.Errorf("content.cache_get missed a cached object"))
		}
		i++
	})
	return failed
}
