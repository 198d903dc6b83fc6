// Rendering of magusd's structured error bodies. A rejected submission
// answers 400/413 with a JSON object carrying the machine-readable
// failure — the offending field, the byte offset of a syntax error —
// and hiding that behind a bare status code makes client bugs
// needlessly hard to diagnose. Every subcommand routes rejected
// responses through readAPIError so the server's diagnosis reaches the
// operator verbatim.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"magus/internal/httpapi"
)

// readAPIError consumes a rejected response's body and renders the
// server's structured error on one line; a body that is not the
// structured form (a proxy's HTML error page, say) is passed through
// trimmed.
func readAPIError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	var e httpapi.APIError
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		if s := strings.TrimSpace(string(body)); s != "" {
			return s
		}
		return resp.Status
	}
	msg := e.Error
	if e.Field != nil && *e.Field != "" {
		msg += " (field " + *e.Field + ")"
	}
	if e.Offset > 0 {
		msg += " (offset " + strconv.FormatInt(e.Offset, 10) + ")"
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}
