#!/bin/sh
# Scripted version of README.md: boot a three-process asterixd cluster,
# run a distributed join, re-run it under an injected link fault, kill a
# node and run it once more on the survivors. Exits non-zero if any of
# the three runs fails or returns a short result.
set -eu

ROOT=$(cd "$(dirname "$0")/../.." && pwd)
WORK=$(mktemp -d)
BIN="$WORK/asterixd"
PIDS=""

cleanup() {
	for p in $PIDS; do kill "$p" 2>/dev/null || true; done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

cd "$ROOT"
go build -o "$BIN" ./cmd/asterixd

start_node() { # id http data peers
	"$BIN" -node-id "$1" -listen "127.0.0.1:$2" -data-listen "127.0.0.1:$3" \
		-peers "$4" -data "$WORK/$1" -hb-interval 50ms -enable-fault-injection &
	PIDS="$PIDS $!"
}

start_node na 19002 19010 'nb=127.0.0.1:19011,nc=127.0.0.1:19012'
start_node nb 19003 19011 'na=127.0.0.1:19010,nc=127.0.0.1:19012'
start_node nc 19004 19012 'na=127.0.0.1:19010,nb=127.0.0.1:19011'

for port in 19002 19003 19004; do
	for _ in $(seq 1 100); do
		curl -sf "http://127.0.0.1:$port/admin/ping" >/dev/null 2>&1 && break
		sleep 0.1
	done
done
sleep 0.5

join() { # id
	curl -sf http://127.0.0.1:19002/query/distributed -d '{
	  "maxAttempts": 6, "sample": 1,
	  "spec": {
	    "id": "'"$1"'",
	    "ops": [
	      {"kind": "gen", "name": "left",  "parallelism": 3, "rows": 200, "keyMod": 100},
	      {"kind": "gen", "name": "right", "parallelism": 3, "rows": 100, "keyMod": 100},
	      {"kind": "hashjoin", "name": "join", "parallelism": 3,
	       "leftCols": [0], "rightCols": [0], "rightWidth": 2},
	      {"kind": "collect", "name": "out"}
	    ],
	    "edges": [
	      {"from": 0, "to": 2, "port": 0, "conn": "hash", "hashCols": [0]},
	      {"from": 1, "to": 2, "port": 1, "conn": "hash", "hashCols": [0]},
	      {"from": 2, "to": 3, "port": 0, "conn": "merge"}
	    ]
	  }
	}'
}

check() { # label response
	echo "$2" | grep -q '"resultCount":1800' || {
		echo "FAIL($1): $2" >&2
		exit 1
	}
	echo "ok($1): $2"
}

check clean "$(join walk-clean)"

curl -sf http://127.0.0.1:19003/admin/fault \
	-d '{"spec": "net.drop:error:after=2:times=3:tag=nb"}' >/dev/null
check drop "$(join walk-drop)"
curl -sf http://127.0.0.1:19003/admin/fault -d '{"spec": ""}' >/dev/null

NC_PID=$(echo "$PIDS" | awk '{print $3}')
kill "$NC_PID"
sleep 1.2 # > 8 x 50ms heartbeat silence threshold
check dead "$(join walk-dead)"

echo "cluster walkthrough: all three runs returned the exact join result"
