//! Subscriber-side notification handle.

use std::ops::Deref;
use std::sync::{Arc, Weak};

use boolmatch_core::SubscriptionId;

use crate::broker::BrokerInner;
use crate::delivery::{DeliveryReceiver, NotifyQueue};

/// A live subscription: a [`DeliveryReceiver`] — every receive method,
/// through `Deref` — that unsubscribes from the broker when dropped,
/// so a subscription lives exactly as long as someone can receive its
/// notifications.
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
#[derive(Debug)]
pub struct Subscription {
    /// Declared first, so it drops first: when it is the last receiver
    /// it discards the backlog before the unsubscribe closes the queue.
    receiver: DeliveryReceiver,
    unsubscribe: Unsubscribe,
}

/// Unsubscribes `id` on drop, unless [`Subscription::detach`] disarmed
/// it by emptying `broker`.
#[derive(Debug)]
struct Unsubscribe {
    id: SubscriptionId,
    broker: Weak<BrokerInner>,
}

impl Drop for Unsubscribe {
    fn drop(&mut self) {
        if let Some(broker) = self.broker.upgrade() {
            broker.unsubscribe(self.id);
        }
    }
}

impl Subscription {
    pub(crate) fn new(queue: Arc<NotifyQueue>, broker: Weak<BrokerInner>) -> Self {
        Subscription {
            unsubscribe: Unsubscribe {
                id: queue.id(),
                broker,
            },
            receiver: DeliveryReceiver::new(queue),
        }
    }

    /// The engine-assigned subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.unsubscribe.id
    }

    /// Detaches the handle from the broker *without* unsubscribing:
    /// matching continues, notifications accumulate in the queue, and
    /// the subscription must later be removed via
    /// [`crate::Broker::unsubscribe`]. Returns the receiving handle.
    pub fn detach(self) -> DeliveryReceiver {
        let Subscription {
            receiver,
            mut unsubscribe,
        } = self;
        unsubscribe.broker = Weak::new();
        receiver
    }
}

impl Deref for Subscription {
    type Target = DeliveryReceiver;

    fn deref(&self) -> &DeliveryReceiver {
        &self.receiver
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use boolmatch_types::Event;

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
        assert_eq!(sub.len(), 5);
        assert!(sub.try_recv().is_some());
        assert_eq!(sub.drain().len(), 4);
        assert_eq!(sub.len(), 0);
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
        let probe = sub.receiver.clone();
        let handle = std::thread::spawn(move || {
            // Publish only once the receiver is parked in `recv`.
            while probe.parked() != (1, 0) {
                std::thread::yield_now();
            }
            publisher.publish(ev(1));
        });
        let got = sub.recv().expect("notification arrives");
        assert_eq!(got.get("a"), Some(&1_i64.into()));
        handle.join().unwrap();
    }

    #[test]
    fn broker_drop_wakes_a_blocked_receiver() {
        let broker = Broker::builder().build();
        let sub = broker.subscribe("a >= 0").unwrap();
        let probe = sub.receiver.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(sub.recv()).unwrap());
        // Drop the broker only once the receiver is parked in `recv`,
        // so the shutdown wake-up is the path taken.
        while probe.parked() != (1, 0) {
            std::thread::yield_now();
        }
        drop(broker);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(None),
            "recv returns on shutdown"
        );
        waiter.join().unwrap();
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
