package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pmcast"
)

func TestParseSubscription(t *testing.T) {
	cases := []struct {
		spec string
		want pmcast.Subscription
	}{
		{"*", pmcast.MatchAll()},
		{"", pmcast.MatchAll()},
		{"b=2", pmcast.MatchAll().Where("b", pmcast.EqInt(2))},
		{"c=2.5", pmcast.MatchAll().Where("c", pmcast.EqFloat(2.5))},
		{"u=true", pmcast.MatchAll().Where("u", pmcast.IsBool(true))},
		{"c>40", pmcast.MatchAll().Where("c", pmcast.Gt(40))},
		{"c<10", pmcast.MatchAll().Where("c", pmcast.Lt(10))},
		{"c>=40", pmcast.MatchAll().Where("c", pmcast.Ge(40))},
		{"c<=1e3", pmcast.MatchAll().Where("c", pmcast.Le(1000))},
		{"e~Bob|Tom", pmcast.MatchAll().Where("e", pmcast.OneOf("Bob", "Tom"))},
		{" b = 2 ; c > 40 ; e~Bob ", pmcast.MatchAll().
			Where("b", pmcast.EqInt(2)).
			Where("c", pmcast.Gt(40)).
			Where("e", pmcast.OneOf("Bob"))},
	}
	for _, tc := range cases {
		got, err := parseSubscription(tc.spec)
		if err != nil {
			t.Errorf("parseSubscription(%q): %v", tc.spec, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("parseSubscription(%q) = %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestParseSubscriptionRejects covers malformed clauses and the words
// strconv.ParseFloat reads as numbers: "inf", "infinity" and "nan" name no
// finite bound, so they are refused like any other word.
func TestParseSubscriptionRejects(t *testing.T) {
	for _, spec := range []string{
		"b", "=2", "c>", "c>abc", "sym=abc",
		"sym=nan", "sym=NaN", "c>inf", "c<-Inf", "c>=infinity", "c<=NAN", "c=+INF",
		"c>1e400",
	} {
		if sub, err := parseSubscription(spec); err == nil {
			t.Errorf("parseSubscription(%q) = %s, want an error", spec, sub)
		}
	}
}

func TestParseAttrs(t *testing.T) {
	got, err := parseAttrs("price=120, ratio=0.5,ok=true,off=false,symbol=ACME,big=INF,small=-inf,odd=nan,word=Infinity")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]pmcast.Value{
		"price":  pmcast.Int(120),
		"ratio":  pmcast.Float(0.5),
		"ok":     pmcast.Bool(true),
		"off":    pmcast.Bool(false),
		"symbol": pmcast.Str("ACME"),
		"big":    pmcast.Str("INF"),
		"small":  pmcast.Str("-inf"),
		"odd":    pmcast.Str("nan"),
		"word":   pmcast.Str("Infinity"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseAttrs = %v, want %v", got, want)
	}
	if _, err := parseAttrs("price=1,symbol"); err == nil {
		t.Error("an attribute without '=' was accepted")
	}
}

func TestParsePeers(t *testing.T) {
	want := map[string]string{"0.0": "127.0.0.1:7800", "0.1": "127.0.0.1:7801"}
	got, err := parsePeers("0.0=127.0.0.1:7800, 0.1=127.0.0.1:7801")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inline peers = %v, want %v", got, want)
	}

	file := filepath.Join(t.TempDir(), "peers")
	if err := os.WriteFile(file, []byte("0.0=127.0.0.1:7800\n0.1=127.0.0.1:7801\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err = parsePeers("@" + file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peers from file = %v, want %v", got, want)
	}

	if _, err := parsePeers("0.0=127.0.0.1:7800,0.1"); err == nil {
		t.Error("an entry without '=' was accepted")
	}
	if _, err := parsePeers("@" + filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("a missing peer file was accepted")
	}
	_, err = parsePeers("0.1=127.0.0.1:7801,0.0=127.0.0.1:7800,0.1=127.0.0.1:7802")
	if err == nil || !strings.Contains(err.Error(), `"0.1"`) {
		t.Errorf("a key listed twice: err = %v, want one naming \"0.1\"", err)
	}
}

func TestParseSpace(t *testing.T) {
	sp, err := parseSpace("2, 3,4")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Depth() != 3 || sp.Arity(1) != 2 || sp.Arity(2) != 3 || sp.Arity(3) != 4 {
		t.Errorf("parseSpace(\"2, 3,4\") = depth %d, want arities 2,3,4", sp.Depth())
	}
	for _, spec := range []string{"", "2,x", "2,,2", "0"} {
		if _, err := parseSpace(spec); err == nil {
			t.Errorf("parseSpace(%q) accepted", spec)
		}
	}
}
