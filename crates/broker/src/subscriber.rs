//! Subscriber-side notification handle.

use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use boolmatch_core::SubscriptionId;
use boolmatch_types::Event;

use crate::broker::BrokerInner;
use crate::delivery::{DeliveryReceiver, NotifyQueue, SubscriberLag};

/// A live subscription: the receiving end of the notification queue.
///
/// Dropping the handle unsubscribes from the broker, so a subscription
/// lives exactly as long as someone can receive its notifications.
///
/// # Examples
///
/// ```
/// use boolmatch_broker::Broker;
/// use boolmatch_types::Event;
///
/// let broker = Broker::builder().build();
/// let sub = broker.subscribe("kind = \"alert\"")?;
/// broker.publish(Event::builder().attr("kind", "alert").build());
/// let notification = sub.try_recv().expect("one notification queued");
/// assert!(notification.contains("kind"));
/// # Ok::<(), boolmatch_broker::BrokerError>(())
/// ```
pub struct Subscription {
    id: SubscriptionId,
    queue: Arc<NotifyQueue>,
    broker: Weak<BrokerInner>,
    /// Cleared by [`Subscription::detach`] so Drop neither
    /// unsubscribes nor releases the queue's receiver count (the
    /// returned [`DeliveryReceiver`] took it over).
    owns_receiver: bool,
}

impl Subscription {
    pub(crate) fn new(
        id: SubscriptionId,
        queue: Arc<NotifyQueue>,
        broker: Weak<BrokerInner>,
    ) -> Self {
        Subscription {
            id,
            queue,
            broker,
            owns_receiver: true,
        }
    }

    /// The engine-assigned subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Takes the next queued notification without blocking.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.queue.try_recv()
    }

    /// Blocks until a notification arrives or the broker goes away.
    pub fn recv(&self) -> Option<Arc<Event>> {
        self.queue.recv()
    }

    /// Blocks up to `timeout`; `None` on timeout or disconnect.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        self.queue.recv_timeout(timeout)
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Arc<Event>> {
        self.queue.drain()
    }

    /// Number of notifications currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// This subscriber's lag snapshot: queue depth, lifetime
    /// enqueued/dropped counts, and quarantine status.
    pub fn lag(&self) -> SubscriberLag {
        self.queue.lag()
    }

    /// Detaches the handle from the broker *without* unsubscribing:
    /// matching continues, notifications accumulate in the queue, and
    /// the subscription must later be removed via
    /// [`crate::Broker::unsubscribe`]. Returns the receiving handle.
    pub fn detach(mut self) -> DeliveryReceiver {
        self.broker = Weak::new();
        let receiver = DeliveryReceiver::new(Arc::clone(&self.queue));
        // Hand the subscription's receiver slot to the new handle:
        // Drop runs but neither unsubscribes nor closes the queue.
        self.owns_receiver = false;
        self.queue.drop_receiver();
        receiver
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        if self.owns_receiver {
            self.queue.drop_receiver();
        }
        if let Some(broker) = self.broker.upgrade() {
            broker.unsubscribe(self.id);
        }
    }
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("queued", &self.queued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Broker;

    fn ev(v: i64) -> Event {
        Event::builder().attr("a", v).build()
    }

    #[test]
    fn try_recv_and_drain() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a >= 0").unwrap();
        for i in 0..5 {
            broker.publish(ev(i));
        }
        assert_eq!(sub.queued(), 5);
        assert!(sub.try_recv().is_some());
        assert_eq!(sub.drain().len(), 4);
        assert_eq!(sub.queued(), 0);
    }

    #[test]
    fn recv_timeout_times_out() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn recv_blocks_until_publish() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        let publisher = broker.clone();
        let queue = Arc::clone(&sub.queue);
        let handle = std::thread::spawn(move || {
            // Publish only once the receiver is parked in `recv`.
            while queue.parked() != (1, 0) {
                std::thread::yield_now();
            }
            publisher.publish(ev(1));
        });
        let got = sub.recv().expect("notification arrives");
        assert_eq!(got.get("a"), Some(&1_i64.into()));
        handle.join().unwrap();
    }

    #[test]
    fn detach_keeps_subscription_alive() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        let id = sub.id();
        let rx = sub.detach();
        assert_eq!(broker.subscription_count(), 1);
        broker.publish(ev(1));
        assert_eq!(rx.len(), 1);
        assert!(broker.unsubscribe(id));
    }

    #[test]
    fn lag_reports_queue_depth_and_drops() {
        let broker = Broker::builder().build();
        let sub = broker
            .subscribe_with_policy("a = 1", crate::DeliveryPolicy::DropNewest { capacity: 2 })
            .unwrap();
        for _ in 0..5 {
            broker.publish(ev(1));
        }
        let lag = sub.lag();
        assert_eq!((lag.queued, lag.enqueued, lag.dropped), (2, 2, 3));
        assert!(!lag.quarantined);
    }

    #[test]
    fn debug_shows_queue_depth() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a = 1").unwrap();
        broker.publish(ev(1));
        let dbg = format!("{sub:?}");
        assert!(dbg.contains("queued: 1"));
    }
}
