#!/bin/sh
# api-check: every non-2xx HTTP answer in the serving surfaces must go
# through the shared envelope helpers in internal/httpapi (Error,
# ErrorWithBody, MethodNotAllowed), so collectors and the fleet router
# can rely on the uniform {"error":{code,message,retry_after_s}} body.
#
# The check is lexical: a handler calling http.Error or hand-writing a
# 4xx/5xx status bypasses the envelope and fails the build, and so does a
# second place that turns an intake result into 429/503. Tests and the
# httpapi package itself (which implements the helpers) are exempt.
set -eu
cd "$(dirname "$0")/.."

fail=0

# 1. http.Error writes text/plain prose — never allowed in handlers.
if hits=$(grep -rn 'http\.Error(' --include='*.go' cmd/ internal/ \
	| grep -v '_test\.go' | grep -v '^internal/httpapi/'); then
	echo "api-check: http.Error bypasses the shared error envelope:" >&2
	echo "$hits" >&2
	fail=1
fi

# 2. Hand-rolled non-2xx WriteHeader calls skip the envelope body.
if hits=$(grep -rn 'WriteHeader(http\.Status' --include='*.go' cmd/ internal/ \
	| grep -v '_test\.go' | grep -v '^internal/httpapi/' \
	| grep -vE 'Status(OK|Accepted|Created|NoContent|ResetContent|PartialContent)'); then
	echo "api-check: raw non-2xx WriteHeader bypasses the shared error envelope:" >&2
	echo "$hits" >&2
	fail=1
fi

# 3. Versioned-surface sanity: the admin prefix constant is the single
# source of the path family; no handler spells /admin/v1 by hand.
if hits=$(grep -rn '"/admin/v1' --include='*.go' cmd/ internal/ \
	| grep -v '_test\.go' | grep -v '^internal/httpapi/'); then
	echo "api-check: /admin/v1 paths must be spelled httpapi.Prefix+\"/...\":" >&2
	echo "$hits" >&2
	fail=1
fi

# 4. One intake writer: the statuses of the intake contract — 429 and 503
# — are written in exactly one file (shard.IngestResponse.Write), so serve,
# node and router cannot grow a second mapping from an intake result to a
# status. Reading a peer's answer compares (==, !=, case) and is not a write.
writers=$(grep -rnE 'http\.Status(TooManyRequests|ServiceUnavailable)' --include='*.go' cmd/ internal/ \
	| grep -v '_test\.go' | grep -v '^internal/httpapi/' \
	| grep -vE '(==|!=) *http\.Status(TooManyRequests|ServiceUnavailable)|:[[:space:]]*case ' || true)
if [ "$(echo "$writers" | cut -d: -f1 | sort -u | grep -c .)" -ne 1 ]; then
	echo "api-check: 429/503 must be written in exactly one file, the intake writer; found:" >&2
	echo "${writers:-  (none)}" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "api-check: admin/ingest error surface is uniform"
