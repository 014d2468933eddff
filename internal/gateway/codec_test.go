package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sssp"
)

// encodeRef is the wire bytes encoding/json writes for one answer — the
// oracle appendSSSPResponse must reproduce exactly.
func encodeRef(t testing.TB, a serve.Answer) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(answerToResponse(a)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return b.Bytes()
}

// randomDist draws one finite-or-+Inf distance: ordinary uniform values,
// integers, exact specials, and arbitrary bit patterns (every sign and
// exponent, denormals included; NaN and -Inf have no wire form).
func randomDist(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Inf(1)
	case 1:
		return float64(rng.Intn(2_000_000))
	case 2:
		return []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1e21, 1e-7}[rng.Intn(6)]
	case 3, 4:
		for {
			v := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	default:
		return rng.Float64() * 12
	}
}

// TestAppendSSSPResponseMatchesEncoder pins the direct sssp writer to
// encoding/json byte for byte: a table of edge cases plus 1,000 seeded
// random rows, with zero and non-zero rounds/messages (omitempty).
func TestAppendSSSPResponseMatchesEncoder(t *testing.T) {
	answer := func(src graph.NodeID, dist []float64, rounds int, messages int64) *serve.SSSPAnswer {
		a := &serve.SSSPAnswer{Source: src, Dist: dist}
		a.Rounds, a.Messages = rounds, messages
		return a
	}
	answers := []*serve.SSSPAnswer{
		answer(0, []float64{}, 0, 0),
		answer(0, nil, 0, 0),
		answer(0, []float64{0}, 0, 0),
		answer(5, []float64{math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}, 3, 0),
		answer(7, []float64{0.1 + 0.2, 1e21, 1e20, 1e-7, 123456.789}, 0, 42),
		answer(math.MaxInt32, []float64{math.Inf(1), math.Inf(1)}, -1, math.MaxInt64),
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1000; i++ {
		a := &serve.SSSPAnswer{Source: graph.NodeID(rng.Int31()), Dist: make([]float64, rng.Intn(200))}
		for j := range a.Dist {
			a.Dist[j] = randomDist(rng)
		}
		if rng.Intn(2) == 0 {
			a.Rounds = rng.Intn(1000)
		}
		if rng.Intn(2) == 0 {
			a.Messages = rng.Int63n(1 << 40)
		}
		answers = append(answers, a)
	}
	var buf []byte
	for i, a := range answers {
		var err error
		buf, err = appendSSSPResponse(buf[:0], a)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if want := encodeRef(t, a); !bytes.Equal(buf, want) {
			t.Fatalf("answer %d differs from encoding/json:\n got %q\nwant %q", i, buf, want)
		}
	}

	// A row without a wire form is an error, not a partial body.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := appendSSSPResponse(nil, &serve.SSSPAnswer{Dist: []float64{1, bad}}); err == nil {
			t.Fatalf("row with %v encoded", bad)
		}
	}
}

// TestSSSPResponseContentLength checks the live handler path: the sssp
// body carries an exact Content-Length and is byte-identical to what
// encoding/json renders for the same answer served in-process.
func TestSSSPResponseContentLength(t *testing.T) {
	env := newEnv(t, makeFixture(t, 300, 3), Options{})
	for _, src := range []int64{0, 17, 299} {
		resp, err := http.Post(env.srv.URL+"/v1/query", "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"kind":"sssp","source":%d}`, src))))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("source %d: status %d: %s", src, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) ||
			resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("source %d: Content-Length %d (header %q), body %d bytes",
				src, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
		}
		a, err := env.direct.Serve(serve.SSSPQuery{Source: graph.NodeID(src)})
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeRef(t, a); !bytes.Equal(body, want) {
			t.Fatalf("source %d: wire body differs from encoding/json's", src)
		}
	}
}

// refDecode is the row decoder DistVector.UnmarshalJSON replaced:
// encoding/json into []*float64, null mapped to +Inf. It is the oracle of
// FuzzDistVectorUnmarshal.
func refDecode(b []byte) (DistVector, error) {
	var raw []*float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	out := make(DistVector, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = *p
		}
	}
	return out, nil
}

// FuzzDistVectorUnmarshal is a differential check of the one-pass row
// decoder against refDecode: it accepts exactly the inputs the reference
// accepts, decodes them bit-identically, and leaves its target untouched
// on rejection.
func FuzzDistVectorUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[1,null]`, `[ 1 , 2 ]`, `[1,]`, `[NaN]`, `["1"]`, `[1e400]`, `[-0]`, `[01]`, `[.5]`,
		` [ ] `, "\t[\n1e-400\r]\n", `[1.5e+3,-2E-2,0.0]`, `[1.]`, `[1e]`, `[-]`, `[+1]`, `[[1]]`, `[{}]`,
		`[true]`, `[nul]`, `[null,]`, `[,1]`, `[1 2]`, `[1]x`, `[1]]`, `nullx`, `1`, ``, `[`, `[Infinity]`,
		`[0.30000000000000004,4.9e-324,1.7976931348623157e+308]`, `[0x10]`, `[1_000]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refDecode(b)
		got := DistVector{42}
		gotErr := got.UnmarshalJSON(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, reference error %v", b, gotErr, wantErr)
		}
		if gotErr != nil {
			if len(got) != 1 || got[0] != 42 {
				t.Fatalf("%q: rejected input modified the target: %v", b, got)
			}
			return
		}
		if got == nil || len(got) != len(want) {
			t.Fatalf("%q: decoded %d values (nil %v), reference %d", b, len(got), got == nil, len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: [%d] = %v, reference %v", b, i, got[i], want[i])
			}
		}
	})
}

// BenchmarkDistVectorCodec times one n=32000 distance row — exact
// distances from a ClusterChain graph (diameter 6, uniform weights) with a
// few unreachable (+Inf) entries — through the direct sssp writer and the
// one-pass decoder.
func BenchmarkDistVectorCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	g, err := gen.ClusterChain(32_000, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := sssp.Dijkstra(g, graph.NewUniformWeights(g.NumEdges(), rng), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(dist); i += 1000 {
		dist[i] = math.Inf(1)
	}
	a := &serve.SSSPAnswer{Source: 0, Dist: dist}
	a.Rounds, a.Messages = 40, 1<<20
	body, err := appendSSSPResponse(nil, a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(body))
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = appendSSSPResponse(buf[:0], a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		row, err := DistVector(dist).MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(row)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var d DistVector
			if err := d.UnmarshalJSON(row); err != nil {
				b.Fatal(err)
			}
		}
	})
}
