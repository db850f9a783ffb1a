// Failover: crash a Frangipani server that has committed metadata
// only to its private log, and watch another server's recovery demon
// replay that log when the lock service hands it the dead server's
// locks (§4, §7). Then crash a Petal storage server and keep reading
// through its replica.
package main

import (
	"fmt"
	"log"
	"time"

	"frangipani"
)

func main() {
	cfg := frangipani.DefaultClusterConfig()
	cluster, err := frangipani.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// ws1 logs synchronously (records reach Petal) but never writes
	// metadata back to its permanent locations: everything it does
	// lives only in its log.
	fscfg := frangipani.DefaultFSConfig()
	fscfg.SyncLog = true
	fscfg.SyncEvery = time.Hour
	ws1, err := cluster.AddServerWithConfig("ws1", fscfg)
	check(err)
	ws2, err := cluster.AddServer("ws2")
	check(err)

	for i := 0; i < 5; i++ {
		check(ws1.Create(fmt.Sprintf("/doc%d.txt", i)))
	}
	fmt.Println("ws1 created 5 files (in its log only) — crashing it now")
	ws1.Crash()

	// ws2's next operation needs ws1's locks. The lock service waits
	// out ws1's lease, asks ws2's recovery demon to replay ws1's log,
	// and only then releases the locks.
	fmt.Println("ws2 listing / (this blocks until lease expiry + recovery)...")
	start := time.Now()
	for {
		ents, err := ws2.ReadDir("/")
		if err == nil && len(ents) == 5 {
			fmt.Printf("ws2 sees all %d files after %.1fs real (recoveries on ws2: %d)\n",
				len(ents), time.Since(start).Seconds(), cluster.Obs().Counter("fs.recovery.count#ws2").Value())
			break
		}
		if time.Since(start) > 2*time.Minute {
			log.Fatal("recovery did not complete")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Now a Petal storage server dies; reads continue from replicas.
	h, err := ws2.OpenFile("/doc0.txt", false)
	check(err)
	if _, err := h.WriteAt([]byte("survives storage failure"), 0); err != nil {
		log.Fatal(err)
	}
	check(h.Sync())
	cluster.Petals[1].Crash()
	fmt.Printf("crashed Petal server %s; reading through replicas...\n", cluster.Petals[1].Name())
	buf := make([]byte, 24)
	if _, err := h.ReadAt(buf, 0); err != nil {
		log.Fatalf("read with a dead Petal server: %v", err)
	}
	fmt.Printf("read OK: %q\n", buf)

	// Bring it back; it resynchronizes missed writes before rejoining.
	cluster.Petals[1].Restart()
	fmt.Println("restarted the Petal server; it will resync missed chunks and rejoin")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
