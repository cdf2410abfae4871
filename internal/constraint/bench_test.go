package constraint

import "testing"

const benchExpr = "mips_free >= 500 and ram_free >= 64 and os == 'linux' and arch == 'amd64' and not owner_busy"

func benchProps() Properties {
	return Properties{
		"mips_free":  Number(800),
		"ram_free":   Number(512),
		"os":         String("linux"),
		"arch":       String("amd64"),
		"owner_busy": Bool(false),
	}
}

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(benchExpr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEval(b *testing.B) {
	e := MustCompile(benchExpr)
	props := benchProps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := e.Eval(props)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkEvalFleet evaluates a GRM-shaped constraint over 10^4 distinct
// 19-property offers, the way a trader scan does: unlike BenchmarkEval, the
// properties do not fit in cache and most offers fail an early clause. The
// record form is what the trader stores; the map form beside it is the same
// fleet as the literals it was built from; record-block is the records again, a
// block at a time through Filter, the way the trader's scan reads them — ns/op
// is per record in all three.
func BenchmarkEvalFleet(b *testing.B) {
	e := MustCompile("mips_free >= 600 and ram_free >= 256 and os == 'linux' and arch == 'amd64'")
	maps := make([]Context, 10000)
	records := make([]Context, len(maps))
	block := make([]*Record, len(maps))
	for i := range maps {
		p := benchProps()
		p["mips_free"] = Number(float64(i * 7 % 1000))
		p["ram_free"] = Number(float64(i * 13 % 1024))
		if i%3 == 0 {
			p["os"] = String("windows")
		}
		for _, k := range []string{"node", "mips_total", "ram_total", "disk_total", "net_total", "disk_free",
			"net_free", "lan", "dedicated", "predicted_idle_s", "window_end_unix", "window_conf",
			"updated_unix", "mgr_epoch"} {
			p[k] = Number(float64(i))
		}
		block[i] = p.Record()
		maps[i], records[i] = p, block[i]
	}
	for _, form := range []struct {
		name  string
		fleet []Context
	}{{"record", records}, {"map", maps}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			matched := 0
			for i := 0; i < b.N; i++ {
				if ok, err := e.Eval(form.fleet[i%len(form.fleet)]); err == nil && ok {
					matched++
				}
			}
			if b.N >= len(form.fleet) && matched == 0 {
				b.Fatal("nothing matched")
			}
		})
	}
	b.Run("record-block", func(b *testing.B) {
		b.ReportAllocs()
		var sel [BlockSize]uint8
		matched := 0
		for i := 0; i < b.N; {
			at := i % len(block)
			recs := block[at:min(at+BlockSize, len(block), at+b.N-i)]
			for j := range recs {
				sel[j] = uint8(j)
			}
			matched += len(e.Filter(recs, sel[:len(recs)]))
			i += len(recs)
		}
		if b.N >= len(block) && matched == 0 {
			b.Fatal("nothing matched")
		}
	})
}
