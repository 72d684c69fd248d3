package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// demoQueries is the order-book demo set in declaration order — the order
// that makes the two join queries borrow aggregates older queries own.
var demoQueries = []struct{ name, sql string }{
	{"vwap", orderbook.QueryVWAPThreshold},
	{"turnover", orderbook.QueryBidTurnover},
	{"biddepth", orderbook.QueryBidDepth},
	{"askturnover", orderbook.QueryAskTurnover},
	{"askdepth", orderbook.QueryAskDepth},
	{"broker", orderbook.QueryBrokerActivity},
	{"netbid", orderbook.QueryBrokerNetBid},
	{"netask", orderbook.QueryBrokerNetAsk},
	{"avgprice", orderbook.QueryBrokerAvgPrice},
	{"twosided", orderbook.QueryTwoSidedVolume},
	{"spreadcover", orderbook.QueryBidAskSpreadCover},
}

// startDemoServer serves the demo set: the first query boots the server (as
// "main"), the rest are registered in order over a client.
func startDemoServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s, err := NewWithOptions(demoQueries[0].sql, orderbook.Catalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, q := range demoQueries[1:] {
		if err := c.Register(q.name, q.sql); err != nil {
			t.Fatalf("REGISTER %s: %v", q.name, err)
		}
	}
	return s, c
}

// checkDemoResults compares every demo query's RESULT with a private
// reference engine fed the same events one at a time.
func checkDemoResults(t *testing.T, c *Client, evs []stream.Event) {
	t.Helper()
	for i, q := range demoQueries {
		pq, err := engine.Prepare(q.sql, orderbook.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.NewToaster(pq, runtime.Options{NoMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := ref.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ref.Results()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.String()
			}
			want = append(want, strings.Join(parts, "|"))
		}
		name := q.name
		if i == 0 {
			name = "main"
		}
		_, rows, err := c.ResultOf(name)
		if err != nil {
			t.Fatalf("RESULT %s: %v", name, err)
		}
		var got []string
		for _, row := range rows {
			got = append(got, strings.Join(row, "|"))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("query %s: server answers\n%s\nreference\n%s", q.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestBatchFanOutWithBorrowedMapReads is the regression test for batches
// over a query set in which a borrower's own statements read a map it
// adopted: twosided and spreadcover join bids against per-broker ask
// aggregates that older queries own. Handing the whole batch to one engine
// after the other let them read those aggregates as of the end of the
// previous batch; every RESULT must equal a per-query reference.
func TestBatchFanOutWithBorrowedMapReads(t *testing.T) {
	_, c := startDemoServer(t, Options{})
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	borrows := false
	for _, l := range list {
		if strings.HasPrefix(l, "twosided ") || strings.HasPrefix(l, "spreadcover ") {
			borrows = borrows || !strings.Contains(l, "shared=- ")
		}
	}
	if !borrows {
		t.Fatalf("the join queries adopted no map; the test exercises nothing:\n%s", strings.Join(list, "\n"))
	}
	evs := orderbook.NewGenerator(7, 400).Events(20000)
	for _, batch := range stream.Batches(evs, 256) {
		if err := c.Batch(batch); err != nil {
			t.Fatal(err)
		}
	}
	checkDemoResults(t, c, evs)
}

// TestWireGolden pins the bytes the client puts on the wire for a mixed
// int/float/string/bool request, and that hand-typed spellings of the same
// lines — odd case, padded fields — parse to the same events.
func TestWireGolden(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("Mixed", "i:int", "f:float", "s:string", "b:bool"))
	vals := []types.Value{types.NewInt(-42), types.NewFloat(2.5), types.NewString("a b"), types.NewBool(true)}
	evs := []stream.Event{
		stream.Ins("Mixed", vals...),
		stream.Del("Mixed", types.NewInt(7), types.NewFloat(1e21), types.NewString(""), types.NewBool(false)),
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	wire := make(chan string)
	go func() {
		r := bufio.NewReader(srv)
		var got strings.Builder
		for _, lines := range []int{1, 1, 3} { // Insert, Delete, Batch of two
			for i := 0; i < lines; i++ {
				l, _ := r.ReadString('\n')
				got.WriteString(l)
			}
			io.WriteString(srv, "OK\n")
		}
		wire <- got.String()
	}()
	c := newClient(cli)
	if err := c.Insert("Mixed", evs[0].Args...); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("Mixed", evs[1].Args...); err != nil {
		t.Fatal(err)
	}
	if err := c.Batch(evs); err != nil {
		t.Fatal(err)
	}
	const line0, line1 = "INSERT Mixed -42|2.5|a b|true\n", "DELETE Mixed 7|1e+21||false\n"
	if got, want := <-wire, line0+line1+"BATCH 2\n"+line0+line1; got != want {
		t.Fatalf("wire bytes\n%q\nwant\n%q", got, want)
	}

	p := deltaParser{cat: cat}
	for _, typed := range []string{
		"Mixed -42|2.5|a b|true",
		"mixed  -42 | 2.5 |  a b  | TRUE ",
		"MIXED -42|+2.5|a b|t",
		"Mixed -42|25e-1|a b\t|1",
	} {
		ev, err := p.parse(stream.Insert, []byte(typed), 1)
		if err != nil {
			t.Errorf("%q: %v", typed, err)
			continue
		}
		if ev.Relation != "Mixed" || !ev.Args.Equal(vals) {
			t.Errorf("%q parsed to %v, want Mixed%v", typed, ev, types.Tuple(vals))
		}
	}
}

// TestBatchTooLarge pins the cap on BATCH <n>: a count past maxBatch is
// refused before any of the body is buffered, and the connection closed,
// since the body cannot be skipped.
func TestBatchTooLarge(t *testing.T) {
	s, _ := startServer(t, "select B, sum(A) from R group by B")
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BATCH %d\nINSERT R 1|2\nRESULT\n", maxBatch+1)
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ERR batch too large (max %d)\n", maxBatch); string(reply) != want {
		t.Fatalf("reply %q, want %q then EOF", reply, want)
	}
	if ev, _, _ := s.statsBody(); ev != 0 {
		t.Fatalf("%d events applied from a refused batch", ev)
	}
	// At the cap the count is accepted (and here runs into a truncated body).
	conn2, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "BATCH %d\nINSERT R 1|2\n", maxBatch)
	conn2.(*net.TCPConn).CloseWrite()
	if reply, _ := io.ReadAll(conn2); string(reply) != "ERR truncated batch\n" {
		t.Fatalf("reply %q, want a truncated-batch error", reply)
	}
}

// ackConn is a connection to a server that acknowledges every request: it
// counts the bytes written and answers each Write with one "OK" line.
type ackConn struct {
	net.Conn // nil; only Read and Write are used
	owed     int
	written  int
}

func (c *ackConn) Write(b []byte) (int, error) {
	c.owed++
	c.written += len(b)
	return len(b), nil
}

func (c *ackConn) Read(b []byte) (int, error) {
	if c.owed == 0 {
		return 0, io.EOF
	}
	c.owed--
	return copy(b, "OK\n"), nil
}

func steadyBids(n int) []stream.Event {
	evs := make([]stream.Event, n)
	for i := range evs {
		evs[i] = stream.Ins("bids", types.NewInt(int64(i)), types.NewInt(int64(i%20)),
			types.NewFloat(100.25+float64(i%16)), types.NewFloat(float64(i%50+1)))
	}
	return evs
}

// TestClientRequestAllocs pins the client's cost of a request: rendered into
// the client's one buffer and sent with one Write, a 256-event batch (and a
// single INSERT) allocates nothing in steady state.
func TestClientRequestAllocs(t *testing.T) {
	conn := &ackConn{}
	c := newClient(conn)
	evs := steadyBids(256)
	if err := c.Batch(evs); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.Batch(evs); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Client.Batch of %d events: %g allocs, want 0", len(evs), got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.Insert("bids", evs[0].Args...); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Client.Insert: %g allocs, want 0", got)
	}
	if conn.owed != 0 || conn.written == 0 {
		t.Errorf("%d acks unread after %d bytes of requests", conn.owed, conn.written)
	}
}

// TestServerRequestAllocs pins the server's cost of a delta request from
// the bytes on the connection to the ack, through parse, WAL encode, group
// commit, log write and fan-out: a handful of allocations per request — the
// value slab is the one that scales with the request — never per event.
func TestServerRequestAllocs(t *testing.T) {
	s, err := NewWithOptions(orderbook.QueryBrokerActivity, orderbook.Catalog(), Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serve(srv)
	}()
	defer func() {
		cli.Close()
		<-served
		s.Close()
	}()

	evs := steadyBids(256)
	batch := []byte("BATCH 256\n")
	for _, ev := range evs {
		batch = appendDelta(batch, ev.Op, ev.Relation, ev.Args)
	}
	single := appendDelta(nil, stream.Insert, "bids", evs[0].Args)
	ack := make([]byte, 3)
	round := func(req []byte) func() {
		return func() {
			if _, err := cli.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(cli, ack); err != nil || string(ack) != "OK\n" {
				t.Fatalf("reply %q, %v", ack, err)
			}
		}
	}
	for i := 0; i < 3; i++ { // size the connection's buffers, bear every map entry
		round(batch)()
	}
	if got := testing.AllocsPerRun(50, round(batch)); got > 8 {
		t.Errorf("BATCH 256 round: %g allocs per request, budget 8", got)
	} else {
		t.Logf("BATCH 256 round: %g allocs per request", got)
	}
	if got := testing.AllocsPerRun(200, round(single)); got > 4 {
		t.Errorf("INSERT round: %g allocs per request, budget 4", got)
	} else {
		t.Logf("INSERT round: %g allocs per request", got)
	}
}

// TestEnginesCopyWhatTheyKeep documents who owns a request's memory: once a
// request is acknowledged, the single-threaded engines hold nothing of its
// value slab or of the bytes it was parsed from. Every request here has both
// scribbled over right after its ack; the answers must not notice.
func TestEnginesCopyWhatTheyKeep(t *testing.T) {
	s, c := startDemoServer(t, Options{WALDir: t.TempDir()})
	ss := newSession(s)
	wire := make([]byte, 64*1024)
	var req []byte
	var reply strings.Builder
	w := bufio.NewWriter(&reply)
	evs := orderbook.NewGenerator(11, 300).Events(8000)
	for _, batch := range stream.Batches(evs, 256) {
		req = append(req[:0], fmt.Sprintf("BATCH %d\n", len(batch))...)
		for _, ev := range batch {
			req = appendDelta(req, ev.Op, ev.Relation, ev.Args)
		}
		sc := bufio.NewScanner(strings.NewReader(string(req)))
		sc.Buffer(wire, len(wire))
		if !sc.Scan() {
			t.Fatal(sc.Err())
		}
		reply.Reset()
		ss.handle(sc, w, sc.Bytes())
		w.Flush()
		if reply.String() != "OK\n" {
			t.Fatalf("reply %q", reply.String())
		}
		slab := ss.parser.slab[:cap(ss.parser.slab)]
		if len(slab) == 0 {
			t.Fatal("request left no slab to overwrite")
		}
		for i := range slab {
			slab[i] = types.NewString("scribbled")
		}
		for i := range wire {
			wire[i] = '#'
		}
	}
	checkDemoResults(t, c, evs)
}
