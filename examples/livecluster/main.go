// Livecluster: the wall-clock serving mode end to end — start the live
// cluster (goroutine workers, background MILP controller), expose the HTTP
// API on an ephemeral port, and fire real HTTP inference requests at it.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"proteus"
	"proteus/internal/numeric"
)

func main() {
	var fams []proteus.Family
	for _, f := range proteus.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" || f.Name == "resnet" {
			fams = append(fams, f)
		}
	}
	alloc, err := proteus.NewAllocator("ilp", nil)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := proteus.NewLiveServer(proteus.LiveConfig{
		Cluster:       proteus.ScaledTestbed(8),
		Families:      fams,
		Allocator:     alloc,
		ControlPeriod: 3 * time.Second,
		InitialDemand: []float64{60, 40, 40},
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("live cluster listening at %s\n", base)

	// Fire 300 HTTP queries over ~3 seconds, Poisson arrivals, Zipf mix.
	rng := numeric.NewRNG(9)
	zipf := numeric.NewZipf(len(fams), 1.001)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes = map[string]int{}
	)
	for i := 0; i < 300; i++ {
		time.Sleep(time.Duration(rng.Exp(100) * float64(time.Second)))
		fam := fams[zipf.Sample(rng)].Name
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/query?family="+fam, "application/json", nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var r struct {
				Outcome string  `json:"outcome"`
				Variant string  `json:"variant"`
				Latency float64 `json:"latency_ms"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				return
			}
			mu.Lock()
			outcomes[r.Outcome]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	fmt.Println("outcomes:", outcomes)

	// Read the server-side stats and allocation through the API.
	stats, _ := http.Get(base + "/v1/stats")
	var summary proteus.Summary
	json.NewDecoder(stats.Body).Decode(&summary)
	stats.Body.Close()
	fmt.Printf("server stats: served=%d late=%d dropped=%d acc=%.2f%%\n",
		summary.Served, summary.Late, summary.Dropped, summary.EffectiveAccuracy)

	allocResp, _ := http.Get(base + "/v1/allocation")
	var hosted map[string]string
	json.NewDecoder(allocResp.Body).Decode(&hosted)
	allocResp.Body.Close()
	fmt.Println("hosted models:")
	for dev, v := range hosted {
		if v != "" {
			fmt.Printf("  %-14s %s\n", dev, v)
		}
	}
}
