//! The load driver: a closed loop over one keep-alive
//! `wl_serve::http::HttpClient` connection, which sends each request as
//! soon as the previous answer arrives.

use std::time::{Duration, Instant};

use wl_serve::http::HttpClient;

/// One request's outcome. `status` is `None` after a transport failure.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the sequence of requests.
    pub index: usize,
    /// From the send to the answer (or the failure).
    pub latency: Duration,
    /// HTTP status, if a response arrived.
    pub status: Option<u16>,
    /// Response body.
    pub body: String,
}

impl Outcome {
    /// A 2xx response arrived.
    pub fn ok(&self) -> bool {
        matches!(self.status, Some(s) if (200..300).contains(&s))
    }
}

/// Closed loop over one keep-alive connection: request `i`, whose path and
/// body `next(i)` gives, is sent as soon as answer `i - 1` arrives, until
/// `length` has passed. A transport error fails that request and opens a
/// new connection.
///
/// # Errors
/// The server cannot be reached at the start or after a failure.
pub fn closed_loop(
    addr: &str,
    length: Duration,
    timeout: Duration,
    mut next: impl FnMut(usize) -> (String, String),
) -> Result<Vec<Outcome>, String> {
    let unreachable = || format!("cannot connect to {addr}");
    let mut client = connect(addr, timeout).ok_or_else(unreachable)?;
    let mut outcomes = Vec::new();
    let start = Instant::now();
    while start.elapsed() < length {
        let index = outcomes.len();
        let (path, body) = next(index);
        let sent = Instant::now();
        let reply = client.call("POST", &path, Some(&body));
        let latency = sent.elapsed();
        let (status, body) = match reply {
            Ok((status, _, body)) => (Some(status), body),
            Err(_) => {
                client = connect(addr, timeout).ok_or_else(unreachable)?;
                (None, String::new())
            }
        };
        outcomes.push(Outcome {
            index,
            latency,
            status,
            body,
        });
    }
    Ok(outcomes)
}

/// A keep-alive client with `timeout` on every call, or `None` if the
/// server cannot be reached.
pub fn connect(addr: &str, timeout: Duration) -> Option<HttpClient> {
    let mut client = HttpClient::connect(addr).ok()?;
    client.set_timeout(Some(timeout)).ok()?;
    Some(client)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_failures_are_not_ok() {
        let outcome = |status| Outcome {
            index: 0,
            latency: Duration::from_millis(1),
            status,
            body: String::new(),
        };
        assert!(!outcome(None).ok());
        assert!(!outcome(Some(503)).ok());
        assert!(outcome(Some(200)).ok());
    }

    #[test]
    fn unreachable_server_is_an_error() {
        // A port that was just released has no listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let timeout = Duration::from_millis(500);
        assert!(closed_loop(&addr, Duration::from_millis(50), timeout, |_| unreachable!()).is_err());
    }
}
